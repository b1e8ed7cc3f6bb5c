//! Transport-agnostic endpoints: one validated address type shared by the
//! server, the shard router, `staub client`, and `staub loadgen`.
//!
//! Before this module existed every driver carried its own `addr: String`
//! plus an optional Unix-socket path and re-implemented host/port
//! parsing. An [`Endpoint`] names a listening point in one of two
//! transports:
//!
//! ```text
//! tcp:HOST:PORT      (or the bare HOST:PORT shorthand)
//! unix:PATH          (Unix only)
//! ```
//!
//! [`Endpoint::bind`] yields an [`EndpointListener`] and
//! [`Endpoint::connect`] an [`EndpointStream`]; both erase the transport
//! so the reactor, the router's backend pool, and the clients are written
//! once against `Read + Write` byte streams.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// A validated service address: where to bind a listener or dial a peer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A TCP `host:port` address (port `0` binds ephemerally).
    Tcp(String),
    /// A Unix-domain socket path (Unix only).
    Unix(PathBuf),
}

/// Why an endpoint spec failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointError(String);

impl fmt::Display for EndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid endpoint: {}", self.0)
    }
}

impl std::error::Error for EndpointError {}

impl Endpoint {
    /// Parses `tcp:HOST:PORT`, `unix:PATH`, or the bare `HOST:PORT`
    /// shorthand every pre-v3 flag accepted.
    ///
    /// # Errors
    ///
    /// Rejects empty specs, a missing or non-numeric port, an empty Unix
    /// path, and `unix:` on platforms without Unix sockets.
    pub fn parse(spec: &str) -> Result<Endpoint, EndpointError> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(EndpointError("unix: needs a socket path".into()));
            }
            if cfg!(unix) {
                return Ok(Endpoint::Unix(PathBuf::from(path)));
            }
            return Err(EndpointError(
                "unix sockets are not available on this platform".into(),
            ));
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        Endpoint::tcp(addr)
    }

    /// A validated TCP endpoint from a `host:port` string.
    ///
    /// # Errors
    ///
    /// Rejects addresses without a `:` or whose final segment is not a
    /// port number.
    pub fn tcp(addr: &str) -> Result<Endpoint, EndpointError> {
        let Some((host, port)) = addr.rsplit_once(':') else {
            return Err(EndpointError(format!("`{addr}` is not HOST:PORT")));
        };
        if host.is_empty() {
            return Err(EndpointError(format!("`{addr}` has an empty host")));
        }
        if port.parse::<u16>().is_err() {
            return Err(EndpointError(format!("`{port}` is not a port number")));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }

    /// A Unix-socket endpoint (not validated against the filesystem —
    /// binding creates the socket file).
    pub fn unix(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// Binds a listener on this endpoint (nonblocking — every consumer
    /// either polls a shutdown flag or registers it with the reactor).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, bad socket path, …).
    pub fn bind(&self) -> io::Result<EndpointListener> {
        match self {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Ok(EndpointListener::Tcp(listener))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A previous unclean exit leaves the socket file behind;
                // rebinding requires removing it first.
                let _ = std::fs::remove_file(path);
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(EndpointListener::Unix(listener, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// Dials this endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(&self) -> io::Result<EndpointStream> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(EndpointStream::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(EndpointStream::Unix(
                std::os::unix::net::UnixStream::connect(path)?,
            )),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listener on either transport, always nonblocking.
#[derive(Debug)]
pub enum EndpointListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-socket listener plus the path it owns (removed on drop by
    /// the server's shutdown path, not here — drops during `fork`-free
    /// test reuse must not unlink a live socket).
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

impl EndpointListener {
    /// Accepts one pending connection, or `WouldBlock`.
    ///
    /// # Errors
    ///
    /// Propagates `accept(2)` failures, including `WouldBlock` when no
    /// connection is pending.
    pub fn try_accept(&self) -> io::Result<EndpointStream> {
        match self {
            EndpointListener::Tcp(l) => l.accept().map(|(s, _)| EndpointStream::Tcp(s)),
            #[cfg(unix)]
            EndpointListener::Unix(l, _) => l.accept().map(|(s, _)| EndpointStream::Unix(s)),
        }
    }

    /// The bound TCP socket address, if this is a TCP listener.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            EndpointListener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            EndpointListener::Unix(..) => None,
        }
    }
}

#[cfg(unix)]
impl std::os::unix::io::AsRawFd for EndpointListener {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match self {
            EndpointListener::Tcp(l) => l.as_raw_fd(),
            EndpointListener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

/// A connected byte stream on either transport.
#[derive(Debug)]
pub enum EndpointStream {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-socket stream.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl EndpointStream {
    /// Switches the stream between blocking and nonblocking mode.
    ///
    /// # Errors
    ///
    /// Propagates `fcntl` failures.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            EndpointStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            EndpointStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Sets the per-read timeout (the blocking connection driver's
    /// drain-poll tick; the router's bound on a backend reply).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            EndpointStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            EndpointStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Half-closes the write side (sends FIN on TCP), leaving reads open.
    /// The lingering-close path uses this so a final reply is never
    /// destroyed by a reset: closing a socket with unread bytes in its
    /// receive buffer makes the kernel send RST, which discards data the
    /// peer has not read yet.
    ///
    /// # Errors
    ///
    /// Propagates `shutdown(2)` failures.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            EndpointStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            EndpointStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl Read for EndpointStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            EndpointStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            EndpointStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for EndpointStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            EndpointStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            EndpointStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            EndpointStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            EndpointStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(unix)]
impl std::os::unix::io::AsRawFd for EndpointStream {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match self {
            EndpointStream::Tcp(s) => s.as_raw_fd(),
            EndpointStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_spellings() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7227").unwrap(),
            Endpoint::Tcp("127.0.0.1:7227".into())
        );
        assert_eq!(
            Endpoint::parse("tcp:localhost:0").unwrap(),
            Endpoint::Tcp("localhost:0".into())
        );
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/s.sock"))
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["", "nohost", "host:", "host:notaport", ":7227", "unix:"] {
            assert!(Endpoint::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        let e = Endpoint::parse("tcp:127.0.0.1:80").unwrap();
        assert_eq!(Endpoint::parse(&e.to_string()).unwrap(), e);
    }

    #[test]
    fn tcp_bind_connect_roundtrip() {
        let listener = Endpoint::tcp("127.0.0.1:0").unwrap().bind().unwrap();
        let addr = listener.tcp_addr().unwrap().to_string();
        let mut client = Endpoint::tcp(&addr).unwrap().connect().unwrap();
        client.write_all(b"ping").unwrap();
        // Nonblocking accept: the connection may take a beat to land.
        let mut server = loop {
            match listener.try_accept() {
                Ok(s) => break s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        };
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }
}
