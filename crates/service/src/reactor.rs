//! The connection driver shared by `staub serve` and `staub route`.
//!
//! [`run`] serves every listener it is handed until drain completes. On
//! Linux it is a nonblocking readiness reactor over `epoll(7)`: **one**
//! reactor thread plus a fixed pool of worker threads serve any number of
//! connections, so an idle keep-alive connection costs a slab entry, not
//! a thread:
//!
//! ```text
//! reactor thread            worker pool (fixed size)
//! ─────────────            ────────────────────────
//! epoll_wait ─┬─ accept      recv Job ─ Service::handle ─ send Done
//!             ├─ read ──────────▲                            │
//!             ├─ write ◀── wake ┴────────────────────────────┘
//!             └─ completions
//! ```
//!
//! Elsewhere it is a blocking thread-per-connection driver. The build
//! target picks the driver; no setting does.
//!
//! Both drivers frame input with the same [`LineReader`] and make every
//! per-line decision in one function: skip a blank line, hand a request
//! to [`Service::handle`], answer a line over the size cap or not UTF-8
//! and then close, close on EOF. Every close after a final reply is a
//! *lingering* close, bounded by one deadline. One request per
//! connection is in flight at a time (the protocol is
//! request/response-ordered), so a connection's session state needs no
//! lock: the reactor moves it into the worker job and back, and the
//! blocking driver keeps it on the connection's thread.
//!
//! The reactor manages readiness mio-style with explicit *interest sets*
//! re-armed on every state transition: a connection whose request is at a
//! worker drops read interest (no spin while the kernel buffer holds
//! pipelined bytes), and write interest exists only while the write
//! buffer is nonempty. This one-shot-style re-arming gives the
//! edge-driven behaviour without edge-triggered mode's lost-wakeup
//! hazard.
//!
//! Drain integrates with [`crate::signal`] through
//! [`Service::shutting_down`], which both drivers poll at least once per
//! 50 ms tick: once the flag is up they stop accepting, let in-flight
//! requests complete and flush, close everything, join their threads,
//! and return.
//!
//! The `epoll` FFI below is the service crate's second audited `unsafe`
//! exception (the first is the `signal(2)` registration in
//! [`crate::signal`]); everything above the private `sys` module is safe
//! code.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::endpoint::{EndpointListener, EndpointStream};
use crate::protocol::{LineRead, LineReader};

/// The longest either driver waits before polling the drain flag again:
/// the `epoll_wait` timeout, and the blocking driver's read timeout and
/// accept poll.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long a closing connection waits for the peer to read its final
/// reply and hang up before it is dropped anyway. Closing outright while
/// unread request bytes sit in the receive buffer (an oversized line's
/// tail, a pipelined request) makes the kernel send RST, which destroys
/// the reply before the peer reads it; so a final reply is followed by a
/// half-close and input is discarded until EOF or this deadline.
const LINGER: Duration = Duration::from_secs(2);

/// Driver tuning.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads executing [`Service::handle`] on the epoll reactor.
    /// The thread count is fixed at start — connection count never
    /// changes it. (The blocking driver runs each request on its
    /// connection's thread.)
    pub workers: usize,
    /// Request-line size cap handed to each connection's [`LineReader`].
    pub max_line_bytes: usize,
}

/// What the driver needs from the protocol layer. The server and the
/// router implement this once each; tests implement it with trivial echo
/// logic.
pub trait Service: Send + Sync + 'static {
    /// Per-connection session state, created on accept and dropped on
    /// close.
    type Conn: Default + Send + 'static;

    /// Handles one complete request line; returns the reply line (no
    /// newline) and whether the connection stays open. Runs on a reactor
    /// worker, or on the connection's own thread in the blocking driver.
    fn handle(&self, conn: &mut Self::Conn, line: &str) -> (String, bool);

    /// The reply for a line that blew the size cap (the connection
    /// closes after it flushes).
    fn oversized(&self, observed: usize) -> String;

    /// The reply for a non-UTF-8 line (the connection closes after it
    /// flushes).
    fn bad_utf8(&self) -> String;

    /// Polled every tick; `true` starts the drain.
    fn shutting_down(&self) -> bool;

    /// A connection was accepted.
    fn connected(&self) {}

    /// A connection was closed (every accepted connection gets exactly
    /// one call).
    fn disconnected(&self) {}
}

/// Live driver gauges, shared with the health endpoint.
#[derive(Debug, Default)]
pub struct ReactorGauges {
    /// Connections currently open.
    pub open_connections: AtomicU64,
    /// Worker threads in the reactor's pool (0 on the blocking driver).
    pub workers: AtomicU64,
    /// Requests currently being handled.
    pub busy: AtomicU64,
}

/// Serves `listeners` until drain completes: the epoll reactor on Linux,
/// the blocking thread-per-connection driver elsewhere. Blocks the
/// calling thread; the server and the router each spawn it on a thread of
/// its own.
///
/// # Errors
///
/// Propagates `epoll` setup failures and fatal poll errors; per-connection
/// I/O errors just close that connection.
pub fn run<S: Service>(
    service: &Arc<S>,
    listeners: Vec<EndpointListener>,
    gauges: &Arc<ReactorGauges>,
    config: &ReactorConfig,
) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    let driver = linux::run::<S>;
    #[cfg(not(target_os = "linux"))]
    let driver = blocking::run::<S>;
    driver(service, listeners, gauges, config)
}

/// What a connection does after reading up to its next line.
enum Step {
    /// A request line for [`Service::handle`].
    Request(String),
    /// No complete line yet; wait for more input.
    Idle,
    /// Send this final reply, then close with a lingering close.
    Final(String),
    /// Close now: the peer hung up or the socket failed.
    Close,
}

/// Reads up to the next request line and makes the per-line decisions
/// both drivers share: blank lines are skipped, a line over the size cap
/// or not UTF-8 gets the service's final reply, EOF closes.
fn next_step<S: Service>(
    service: &S,
    reader: &mut LineReader,
    stream: &mut EndpointStream,
) -> Step {
    loop {
        match reader.next_line(stream) {
            Ok(LineRead::Line(line)) if line.trim().is_empty() => {}
            Ok(LineRead::Line(line)) => return Step::Request(line),
            Ok(LineRead::Idle) => return Step::Idle,
            Ok(LineRead::TooLong { observed }) => return Step::Final(service.oversized(observed)),
            Ok(LineRead::BadUtf8) => return Step::Final(service.bad_utf8()),
            Ok(LineRead::Eof) | Err(_) => return Step::Close,
        }
    }
}

/// Runs one request line. The connection stays open only while the
/// service keeps it open and no drain has begun.
fn handle<S: Service>(service: &S, conn: &mut S::Conn, line: &str) -> (String, bool) {
    let (reply, keep_open) = service.handle(conn, line);
    (reply, keep_open && !service.shutting_down())
}

/// Reads and discards input on a lingering connection: `Ok(true)` once
/// the peer has hung up (it has read the final reply), `Ok(false)` when
/// no more input is ready yet.
fn discard_input(stream: &mut EndpointStream) -> io::Result<bool> {
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return Ok(true),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// epoll FFI (audited unsafe exception)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! Minimal `epoll(7)` bindings; no libc crate in the workspace.

    use std::io;

    // The kernel UAPI packs `struct epoll_event` on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An owned epoll instance.
    pub struct Epoll {
        fd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; a negative return
            // is the only failure mode.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it. DEL
            // ignores the event pointer on modern kernels but a valid one
            // is passed anyway (required before Linux 2.6.9).
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn delete(&self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits up to `timeout`; fills `events` and returns the count.
        pub fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout: std::time::Duration,
        ) -> io::Result<usize> {
            let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
            // SAFETY: the events pointer and capacity describe a live,
            // exclusively-borrowed buffer; the kernel writes at most
            // `maxevents` entries.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, ms) };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(rc as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this struct and closed exactly once.
            unsafe { close(self.fd) };
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod linux {
    use super::sys::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use super::*;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::{mpsc, Mutex};

    /// Token namespace: connection tokens encode `(generation, slot)`;
    /// the top of the space names listeners and the waker.
    const TOKEN_WAKER: u64 = u64::MAX;
    const TOKEN_LISTENER_BASE: u64 = u64::MAX - 1024;
    const SLOT_BITS: u32 = 20;
    const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

    fn conn_token(slot: usize, gen: u64) -> u64 {
        (gen << SLOT_BITS) | slot as u64
    }

    struct Job<C> {
        slot: usize,
        gen: u64,
        line: String,
        state: C,
    }

    struct Done<C> {
        slot: usize,
        gen: u64,
        state: C,
        reply: String,
        keep_open: bool,
    }

    struct Conn<C> {
        stream: EndpointStream,
        reader: LineReader,
        wbuf: Vec<u8>,
        wpos: usize,
        /// Session state; `None` while a request is at a worker.
        state: Option<C>,
        gen: u64,
        /// No more requests: close once the write buffer flushes.
        closing: bool,
        /// Reads stopped permanently (EOF / cap / bad UTF-8).
        read_done: bool,
        /// Lingering close: the final reply is flushed and the write side
        /// shut down; input is discarded until the peer closes or this
        /// deadline ([`LINGER`] after the flush) passes.
        linger_until: Option<Instant>,
        interest: u32,
    }

    impl<C> Conn<C> {
        fn busy(&self) -> bool {
            self.state.is_none()
        }

        fn wanted_interest(&self) -> u32 {
            let mut events = EPOLLRDHUP;
            if self.linger_until.is_some() || (!self.busy() && !self.read_done && !self.closing) {
                events |= EPOLLIN;
            }
            if self.wpos < self.wbuf.len() {
                events |= EPOLLOUT;
            }
            events
        }
    }

    struct Slab<C> {
        slots: Vec<Option<Conn<C>>>,
        free: Vec<usize>,
        next_gen: u64,
    }

    impl<C> Slab<C> {
        fn new() -> Slab<C> {
            Slab {
                slots: Vec::new(),
                free: Vec::new(),
                next_gen: 1,
            }
        }

        fn insert(&mut self, mut conn: Conn<C>) -> (usize, u64) {
            let gen = self.next_gen;
            self.next_gen += 1;
            conn.gen = gen;
            match self.free.pop() {
                Some(slot) => {
                    self.slots[slot] = Some(conn);
                    (slot, gen)
                }
                None => {
                    self.slots.push(Some(conn));
                    (self.slots.len() - 1, gen)
                }
            }
        }

        fn get(&mut self, slot: usize, gen: u64) -> Option<&mut Conn<C>> {
            match self.slots.get_mut(slot) {
                Some(Some(conn)) if conn.gen == gen => Some(conn),
                _ => None,
            }
        }

        fn remove(&mut self, slot: usize) -> Option<Conn<C>> {
            let conn = self.slots.get_mut(slot)?.take()?;
            self.free.push(slot);
            Some(conn)
        }

        fn len(&self) -> usize {
            self.slots.len() - self.free.len()
        }

        fn tokens(&self) -> Vec<(usize, u64)> {
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.as_ref().map(|c| (i, c.gen)))
                .collect()
        }
    }

    struct Reactor<'a, S: Service> {
        service: &'a Arc<S>,
        gauges: &'a Arc<ReactorGauges>,
        ep: Epoll,
        slab: Slab<S::Conn>,
        jobs: mpsc::Sender<Job<S::Conn>>,
        done_rx: mpsc::Receiver<Done<S::Conn>>,
        waker_rx: UnixStream,
        max_line_bytes: usize,
        /// Connections in the lingering-close state; the deadline sweep
        /// runs only while this is nonzero.
        lingering: usize,
    }

    pub fn run<S: Service>(
        service: &Arc<S>,
        listeners: Vec<EndpointListener>,
        gauges: &Arc<ReactorGauges>,
        config: &ReactorConfig,
    ) -> io::Result<()> {
        let ep = Epoll::new()?;
        for (i, l) in listeners.iter().enumerate() {
            ep.add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER_BASE + i as u64)?;
        }

        // Self-wake channel: workers write one byte after posting a
        // completion so a parked epoll_wait returns immediately.
        let (waker_tx, waker_rx) = UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        ep.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;

        let (jobs_tx, jobs_rx) = mpsc::channel::<Job<S::Conn>>();
        let (done_tx, done_rx) = mpsc::channel::<Done<S::Conn>>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let worker_count = config.workers.max(1);
        gauges.workers.store(worker_count as u64, Ordering::Relaxed);
        let mut worker_handles = Vec::with_capacity(worker_count);
        for w in 0..worker_count {
            let jobs_rx = Arc::clone(&jobs_rx);
            let done_tx = done_tx.clone();
            let service = Arc::clone(service);
            let waker = waker_tx.try_clone()?;
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("staub-worker-{w}"))
                    .spawn(move || loop {
                        let job = match jobs_rx.lock().expect("job queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // reactor dropped the sender: drain done
                        };
                        let Job {
                            slot,
                            gen,
                            line,
                            mut state,
                        } = job;
                        let (reply, keep_open) = handle(&*service, &mut state, &line);
                        if done_tx
                            .send(Done {
                                slot,
                                gen,
                                state,
                                reply,
                                keep_open,
                            })
                            .is_err()
                        {
                            return;
                        }
                        // A full pipe still wakes the reactor, so a
                        // WouldBlock here is harmless.
                        let _ = (&waker).write(&[1u8]);
                    })?,
            );
        }

        let mut reactor = Reactor {
            service,
            gauges,
            ep,
            slab: Slab::new(),
            jobs: jobs_tx,
            done_rx,
            waker_rx,
            max_line_bytes: config.max_line_bytes,
            lingering: 0,
        };

        let mut events = vec![super::sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut accepting = true;
        loop {
            let draining = reactor.service.shutting_down();
            if draining && accepting {
                // Stop accepting; close idle connections now. Busy ones
                // finish their in-flight request and flush first.
                for l in &listeners {
                    let _ = reactor.ep.delete(l.as_raw_fd());
                }
                accepting = false;
                for (slot, gen) in reactor.slab.tokens() {
                    let idle = reactor
                        .slab
                        .get(slot, gen)
                        .map(|c| !c.busy() && c.wpos >= c.wbuf.len())
                        .unwrap_or(false);
                    if idle {
                        reactor.close(slot);
                    } else if let Some(conn) = reactor.slab.get(slot, gen) {
                        conn.closing = true;
                    }
                }
            }
            if !accepting && reactor.slab.len() == 0 {
                break;
            }

            let n = reactor.ep.wait(&mut events, POLL_INTERVAL)?;
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                if token == TOKEN_WAKER {
                    let mut sink = [0u8; 64];
                    while matches!(reactor.waker_rx.read(&mut sink), Ok(n) if n > 0) {}
                    continue;
                }
                if token >= TOKEN_LISTENER_BASE {
                    if accepting {
                        let idx = (token - TOKEN_LISTENER_BASE) as usize;
                        reactor.accept_all(&listeners[idx]);
                    }
                    continue;
                }
                let slot = (token & SLOT_MASK) as usize;
                let gen = token >> SLOT_BITS;
                if reactor.slab.get(slot, gen).is_none() {
                    continue; // stale event for a recycled slot
                }
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    reactor.close(slot);
                    continue;
                }
                if bits & EPOLLOUT != 0 {
                    reactor.flush(slot, gen);
                }
                if reactor.slab.get(slot, gen).is_some() && bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                    reactor.read_ready(slot, gen);
                }
            }

            reactor.drain_completions();

            // Deadline sweep for peers that never hang up after their
            // final reply; skipped entirely while nothing lingers.
            if reactor.lingering > 0 {
                let now = Instant::now();
                for (slot, gen) in reactor.slab.tokens() {
                    let expired = reactor
                        .slab
                        .get(slot, gen)
                        .and_then(|c| c.linger_until)
                        .is_some_and(|t| now >= t);
                    if expired {
                        reactor.close(slot);
                    }
                }
            }
        }

        // Dropping the job sender ends every worker's recv loop.
        drop(reactor);
        for h in worker_handles {
            let _ = h.join();
        }
        Ok(())
    }

    impl<'a, S: Service> Reactor<'a, S> {
        fn accept_all(&mut self, listener: &EndpointListener) {
            loop {
                match listener.try_accept() {
                    Ok(stream) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let conn = Conn {
                            stream,
                            reader: LineReader::new(self.max_line_bytes),
                            wbuf: Vec::new(),
                            wpos: 0,
                            state: Some(S::Conn::default()),
                            gen: 0,
                            closing: false,
                            read_done: false,
                            linger_until: None,
                            interest: 0,
                        };
                        let (slot, gen) = self.slab.insert(conn);
                        let token = conn_token(slot, gen);
                        let conn = self.slab.get(slot, gen).expect("just inserted");
                        let interest = conn.wanted_interest();
                        conn.interest = interest;
                        let fd = conn.stream.as_raw_fd();
                        if self.ep.add(fd, interest, token).is_err() {
                            self.slab.remove(slot);
                            continue;
                        }
                        self.service.connected();
                        self.gauges
                            .open_connections
                            .store(self.slab.len() as u64, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        }

        /// Re-arms the epoll interest set after a state transition.
        fn rearm(&mut self, slot: usize, gen: u64) {
            let Some(conn) = self.slab.get(slot, gen) else {
                return;
            };
            let wanted = conn.wanted_interest();
            if wanted != conn.interest {
                conn.interest = wanted;
                let fd = conn.stream.as_raw_fd();
                let _ = self.ep.modify(fd, wanted, conn_token(slot, gen));
            }
        }

        /// Reads what is ready: discards it on a lingering connection;
        /// otherwise dispatches at most one request to the worker pool
        /// (request/response ordering) or queues a final reply.
        fn read_ready(&mut self, slot: usize, gen: u64) {
            let Some(conn) = self.slab.get(slot, gen) else {
                return;
            };
            let close_now = if conn.linger_until.is_some() {
                !matches!(discard_input(&mut conn.stream), Ok(false))
            } else if conn.busy() || conn.read_done || conn.closing {
                false
            } else {
                match next_step(&**self.service, &mut conn.reader, &mut conn.stream) {
                    Step::Request(line) => {
                        let state = conn.state.take().expect("not busy");
                        self.gauges.busy.fetch_add(1, Ordering::Relaxed);
                        let job = Job {
                            slot,
                            gen,
                            line,
                            state,
                        };
                        // A send fails only once the workers are gone
                        // (drain): close.
                        let gone = self.jobs.send(job).is_err();
                        if gone {
                            self.gauges.busy.fetch_sub(1, Ordering::Relaxed);
                        }
                        gone
                    }
                    Step::Idle => false,
                    Step::Final(reply) => {
                        conn.wbuf.extend_from_slice(reply.as_bytes());
                        conn.wbuf.push(b'\n');
                        conn.read_done = true;
                        conn.closing = true;
                        false
                    }
                    Step::Close => true,
                }
            };
            if close_now {
                self.close(slot);
            } else {
                self.flush(slot, gen);
            }
        }

        /// Writes out as much of the buffer as the socket accepts, starts
        /// the lingering close of flushed `closing` connections, then
        /// re-arms interest.
        fn flush(&mut self, slot: usize, gen: u64) {
            let mut close_now = false;
            let mut lingers = false;
            {
                let Some(conn) = self.slab.get(slot, gen) else {
                    return;
                };
                loop {
                    if conn.wpos >= conn.wbuf.len() {
                        break;
                    }
                    match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                        Ok(0) => {
                            close_now = true;
                            break;
                        }
                        Ok(n) => conn.wpos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            close_now = true;
                            break;
                        }
                    }
                }
                if !close_now && conn.wpos >= conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    if conn.closing && !conn.busy() && conn.linger_until.is_none() {
                        conn.linger_until = Some(Instant::now() + LINGER);
                        let _ = conn.stream.shutdown_write();
                        lingers = true;
                    }
                }
            }
            if lingers {
                self.lingering += 1;
            }
            if close_now {
                self.close(slot);
            } else {
                self.rearm(slot, gen);
            }
        }

        /// Applies finished worker results: restore session state, queue
        /// the reply, resume reading pipelined input.
        fn drain_completions(&mut self) {
            while let Ok(done) = self.done_rx.try_recv() {
                self.gauges.busy.fetch_sub(1, Ordering::Relaxed);
                let Some(conn) = self.slab.get(done.slot, done.gen) else {
                    continue; // connection died while its request ran
                };
                conn.state = Some(done.state);
                conn.wbuf.extend_from_slice(done.reply.as_bytes());
                conn.wbuf.push(b'\n');
                if !done.keep_open {
                    conn.closing = true;
                }
                self.flush(done.slot, done.gen);
                // Pipelined requests may already sit in the LineReader;
                // epoll will not re-signal for bytes already read.
                self.read_ready(done.slot, done.gen);
            }
        }

        fn close(&mut self, slot: usize) {
            if let Some(conn) = self.slab.remove(slot) {
                if conn.linger_until.is_some() {
                    self.lingering -= 1;
                }
                let _ = self.ep.delete(conn.stream.as_raw_fd());
                self.service.disconnected();
                self.gauges
                    .open_connections
                    .store(self.slab.len() as u64, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The blocking driver (non-Linux targets; compiled on Linux for its tests)
// ---------------------------------------------------------------------------

#[cfg(any(test, not(target_os = "linux")))]
mod blocking {
    use super::*;

    /// Polls the listeners until drain, serving each accepted connection
    /// on a thread of its own, then joins every connection thread.
    pub fn run<S: Service>(
        service: &Arc<S>,
        listeners: Vec<EndpointListener>,
        gauges: &Arc<ReactorGauges>,
        config: &ReactorConfig,
    ) -> io::Result<()> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !service.shutting_down() {
            let mut accepted = false;
            for listener in &listeners {
                let Ok(stream) = listener.try_accept() else {
                    continue;
                };
                accepted = true;
                // Served blocking; the read timeout is the drain tick.
                if stream.set_nonblocking(false).is_err()
                    || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
                {
                    continue; // peer already gone
                }
                let service = Arc::clone(service);
                let gauges = Arc::clone(gauges);
                let max_line_bytes = config.max_line_bytes;
                let spawned =
                    std::thread::Builder::new()
                        .name("staub-conn".into())
                        .spawn(move || {
                            service.connected();
                            gauges.open_connections.fetch_add(1, Ordering::Relaxed);
                            serve(&*service, &gauges, stream, max_line_bytes);
                            gauges.open_connections.fetch_sub(1, Ordering::Relaxed);
                            service.disconnected();
                        });
                // Out of threads: this connection is dropped, the rest
                // keep being served.
                if let Ok(handle) = spawned {
                    connections.push(handle);
                }
            }
            // Reap finished connection threads so a long-lived server
            // does not accumulate join handles.
            connections.retain(|h| !h.is_finished());
            if !accepted {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        for h in connections {
            let _ = h.join();
        }
        Ok(())
    }

    /// One connection, start to close.
    fn serve<S: Service>(
        service: &S,
        gauges: &ReactorGauges,
        mut stream: EndpointStream,
        max_line_bytes: usize,
    ) {
        let mut reader = LineReader::new(max_line_bytes);
        let mut conn = S::Conn::default();
        loop {
            let (reply, keep_open) = match next_step(service, &mut reader, &mut stream) {
                Step::Request(line) => {
                    gauges.busy.fetch_add(1, Ordering::Relaxed);
                    let answered = handle(service, &mut conn, &line);
                    gauges.busy.fetch_sub(1, Ordering::Relaxed);
                    answered
                }
                Step::Final(reply) => (reply, false),
                Step::Idle if !service.shutting_down() => continue,
                // Drain drops idle keep-alive connections.
                Step::Idle | Step::Close => return,
            };
            let written = stream
                .write_all(reply.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .and_then(|()| stream.flush());
            if written.is_err() {
                return;
            }
            if !keep_open {
                // Lingering close; a drain cuts it short, as the reactor
                // closes lingering connections when it drains.
                if stream.shutdown_write().is_ok() {
                    let deadline = Instant::now() + LINGER;
                    while Instant::now() < deadline
                        && !service.shutting_down()
                        && matches!(discard_input(&mut stream), Ok(false))
                    {}
                }
                return;
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;

    struct Echo {
        stop: AtomicBool,
    }

    impl Service for Echo {
        type Conn = u64;

        fn handle(&self, conn: &mut u64, line: &str) -> (String, bool) {
            *conn += 1;
            if line == "quit" {
                return ("bye".into(), false);
            }
            (format!("{line}#{conn}"), true)
        }

        fn oversized(&self, observed: usize) -> String {
            format!("too-long:{observed}")
        }

        fn bad_utf8(&self) -> String {
            "bad-utf8".into()
        }

        fn shutting_down(&self) -> bool {
            self.stop.load(Ordering::Relaxed)
        }
    }

    type Driver = fn(
        &Arc<Echo>,
        Vec<EndpointListener>,
        &Arc<ReactorGauges>,
        &ReactorConfig,
    ) -> io::Result<()>;

    /// Every echo test runs against both drivers.
    const DRIVERS: [(&str, Driver); 2] = [
        ("epoll", super::linux::run::<Echo>),
        ("blocking", super::blocking::run::<Echo>),
    ];

    fn start_echo(
        driver: Driver,
        max_line: usize,
    ) -> (
        Arc<Echo>,
        Arc<ReactorGauges>,
        std::net::SocketAddr,
        std::thread::JoinHandle<io::Result<()>>,
    ) {
        let service = Arc::new(Echo {
            stop: AtomicBool::new(false),
        });
        let gauges = Arc::new(ReactorGauges::default());
        let listener = Endpoint::tcp("127.0.0.1:0").unwrap().bind().unwrap();
        let addr = listener.tcp_addr().unwrap();
        let config = ReactorConfig {
            workers: 2,
            max_line_bytes: max_line,
        };
        let handle = {
            let service = Arc::clone(&service);
            let gauges = Arc::clone(&gauges);
            std::thread::spawn(move || driver(&service, vec![listener], &gauges, &config))
        };
        (service, gauges, addr, handle)
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        use std::io::Write as _;
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    /// Reads whatever is left on `stream` until EOF.
    fn rest(stream: &TcpStream) -> String {
        let mut rest = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_to_string(&mut rest)
            .unwrap();
        rest
    }

    #[test]
    fn echoes_with_per_connection_state() {
        for (name, driver) in DRIVERS {
            let (service, _gauges, addr, handle) = start_echo(driver, 1024);
            let mut a = TcpStream::connect(addr).unwrap();
            let mut b = TcpStream::connect(addr).unwrap();
            assert_eq!(roundtrip(&mut a, "hello"), "hello#1", "{name}");
            assert_eq!(roundtrip(&mut b, "world"), "world#1", "{name}");
            // Per-connection counters are independent: each connection
            // kept its own state across requests.
            assert_eq!(roundtrip(&mut a, "again"), "again#2", "{name}");
            assert_eq!(roundtrip(&mut a, "quit"), "bye", "{name}");
            service.stop.store(true, Ordering::Relaxed);
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn many_idle_connections_cost_no_threads() {
        let (service, gauges, addr, handle) = start_echo(super::linux::run::<Echo>, 1024);
        let mut conns: Vec<TcpStream> =
            (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Wait for the reactor to register them all.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while gauges.open_connections.load(Ordering::Relaxed) < 64 {
            assert!(std::time::Instant::now() < deadline, "registration stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(gauges.workers.load(Ordering::Relaxed), 2);
        // Every connection still works after sitting idle.
        let last = conns.last_mut().unwrap();
        assert_eq!(roundtrip(last, "ping"), "ping#1");
        service.stop.store(true, Ordering::Relaxed);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_line_answers_then_closes() {
        for (name, driver) in DRIVERS {
            let (service, _gauges, addr, handle) = start_echo(driver, 16);
            let mut stream = TcpStream::connect(addr).unwrap();
            let reply = roundtrip(&mut stream, &"x".repeat(64));
            assert!(reply.starts_with("too-long:"), "{name}: {reply}");
            // The connection is closed after the reply.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut rest = String::new();
            assert_eq!(
                reader.read_line(&mut rest).unwrap(),
                0,
                "{name}: expected EOF"
            );
            service.stop.store(true, Ordering::Relaxed);
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn non_utf8_line_answers_then_closes() {
        use std::io::Write as _;
        for (name, driver) in DRIVERS {
            let (service, _gauges, addr, handle) = start_echo(driver, 1024);
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"caf\xe9\nnever-read\n").unwrap();
            assert_eq!(rest(&stream), "bad-utf8\n", "{name}");
            service.stop.store(true, Ordering::Relaxed);
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn final_reply_reaches_a_peer_that_keeps_sending() {
        use std::io::Write as _;
        for (name, driver) in DRIVERS {
            let (service, _gauges, addr, handle) = start_echo(driver, 1024);
            let mut stream = TcpStream::connect(addr).unwrap();
            // `quit`, then far more input than the socket buffers hold.
            // The write completes only if the server keeps reading after
            // its final reply; closing with the input unread would reset
            // the connection instead.
            let mut input = b"quit\n".to_vec();
            input.resize(32 << 20, b'x');
            if let Err(e) = stream.write_all(&input) {
                panic!("{name}: {e}");
            }
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            assert_eq!(rest(&stream), "bye\n", "{name}");
            service.stop.store(true, Ordering::Relaxed);
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn pipelined_requests_all_answer_in_order() {
        for (name, driver) in DRIVERS {
            let (service, _gauges, addr, handle) = start_echo(driver, 1024);
            let mut stream = TcpStream::connect(addr).unwrap();
            use std::io::Write as _;
            stream.write_all(b"one\ntwo\nthree\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut got = Vec::new();
            for _ in 0..3 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                got.push(line.trim_end().to_string());
            }
            assert_eq!(got, vec!["one#1", "two#2", "three#3"], "{name}");
            service.stop.store(true, Ordering::Relaxed);
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn drain_lets_inflight_flush_then_exits() {
        for (name, driver) in DRIVERS {
            let (service, gauges, addr, handle) = start_echo(driver, 1024);
            let mut stream = TcpStream::connect(addr).unwrap();
            assert_eq!(roundtrip(&mut stream, "pre"), "pre#1", "{name}");
            service.stop.store(true, Ordering::Relaxed);
            handle.join().unwrap().unwrap();
            assert_eq!(gauges.open_connections.load(Ordering::Relaxed), 0, "{name}");
        }
    }
}
