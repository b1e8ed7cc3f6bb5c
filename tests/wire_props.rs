//! Wire fuzzing of `staub serve`: random request lines — every protocol
//! version, sessions, malformed JSON, invalid UTF-8, lines over the size
//! cap, an unterminated tail — written to one connection of an in-process
//! server and split at random byte offsets.
//!
//! Whatever arrives, the server must answer every complete line with one
//! JSON reply, in order, up to and including the first line the protocol
//! answers by closing, and then close; and it must go on serving fresh
//! connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use staub::core::BatchConfig;
use staub::service::json::{self, Json};
use staub::service::{Server, ServerConfig};

/// The server's request-line cap.
const MAX_LINE: usize = 4096;

/// One in-process server shared by every case: a 4 KiB line cap and a
/// small step budget, so each solve is quick.
fn server() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let batch = BatchConfig {
                threads: 1,
                steps: 20_000,
                ..BatchConfig::default()
            };
            let config = ServerConfig::new().max_line_bytes(MAX_LINE).batch(batch);
            Server::launch(config).expect("bind loopback")
        })
        .local_addr()
}

/// One request line.
#[derive(Debug, Clone)]
enum Line {
    Health {
        v: u32,
    },
    Solve {
        v: u32,
        n: u8,
    },
    /// `session_open`, `assert`, `check` or `session_close` on `s1`.
    Session {
        v: u32,
        op: u8,
    },
    FutureVersion,
    NotJson,
    BadUtf8,
    Oversized {
        extra: usize,
    },
}

impl Line {
    /// The line's bytes (no newline), the `id` its reply carries, and
    /// whether the server closes the connection after answering it.
    fn render(&self, i: usize) -> (Vec<u8>, Option<String>, bool) {
        let id = format!("l{i}");
        let (text, closes) = match self {
            Line::Health { v } => (format!(r#"{{"op":"health","v":{v},"id":"{id}"}}"#), false),
            Line::Solve { v, n } => (
                format!(
                    r#"{{"op":"solve","v":{v},"id":"{id}","constraint":"(declare-fun x () Int)(assert (> x {n}))"}}"#
                ),
                false,
            ),
            Line::Session { v, op } => {
                let body = match op {
                    0 => r#""op":"session_open""#.to_string(),
                    1 => format!(
                        r#""op":"assert","session":"s1","constraint":"(declare-fun y{i} () Int)(assert (< y{i} {i}))""#
                    ),
                    2 => r#""op":"check","session":"s1""#.to_string(),
                    _ => r#""op":"session_close","session":"s1""#.to_string(),
                };
                // Session ops below v2 are malformed, which closes.
                (format!(r#"{{{body},"v":{v},"id":"{id}"}}"#), *v < 2)
            }
            Line::FutureVersion => (format!(r#"{{"op":"health","v":9,"id":"{id}"}}"#), false),
            Line::NotJson => ("not json {".to_string(), true),
            Line::BadUtf8 => {
                let bytes = b"{\"op\":\"health\",\"id\":\"\xff\"}".to_vec();
                return (bytes, None, true);
            }
            Line::Oversized { extra } => ("x".repeat(MAX_LINE + 1 + extra), true),
        };
        // Replies to lines the parser rejects carry no id.
        let echoed = match self {
            Line::Health { .. } | Line::Solve { .. } => Some(id),
            Line::Session { v, .. } if *v >= 2 => Some(id),
            _ => None,
        };
        (text.into_bytes(), echoed, closes)
    }
}

fn line() -> impl Strategy<Value = Line> {
    prop_oneof![
        (1u32..4).prop_map(|v| Line::Health { v }),
        (1u32..4, 0u8..8).prop_map(|(v, n)| Line::Solve { v, n }),
        (1u32..4, 0u8..4).prop_map(|(v, op)| Line::Session { v, op }),
        Just(Line::FutureVersion),
        // One arm for the lines that close, so a sequence often runs on.
        prop_oneof![
            Just(Line::NotJson),
            Just(Line::BadUtf8),
            (0usize..2048).prop_map(|extra| Line::Oversized { extra }),
        ],
    ]
}

/// Writes `chunks` on a clone of `stream`, then half-closes, while this
/// thread reads every reply line until EOF.
fn exchange(stream: &TcpStream, chunks: &[&[u8]]) -> Vec<String> {
    std::thread::scope(|s| {
        let mut writer = stream.try_clone().expect("clone stream");
        s.spawn(move || {
            for chunk in chunks {
                // The server stops reading once it closes; the rest of
                // the input is allowed to go nowhere.
                if writer.write_all(chunk).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let _ = writer.shutdown(Shutdown::Write);
        });
        let mut replies = Vec::new();
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        loop {
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(0) => return replies,
                Ok(_) => replies.push(reply),
                Err(e) => panic!("reading replies failed after {replies:?}: {e}"),
            }
        }
    })
}

proptest! {
    #[test]
    fn every_complete_line_gets_one_ordered_reply_until_close(
        lines in vec(line(), 0..10),
        cuts in vec(0u32..u32::MAX, 0..8),
        tail in (0u8..2, 1usize..40),
    ) {
        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        let mut closed = false;
        for (i, l) in lines.iter().enumerate() {
            let (text, id, closes) = l.render(i);
            bytes.extend_from_slice(&text);
            bytes.push(b'\n');
            if !closed {
                expected.push(id);
                closed = closes;
            }
        }
        if tail.0 == 1 {
            // An unterminated tail: no newline, so no reply.
            bytes.extend_from_slice(&b"{\"op\":\"health\"".repeat(tail.1)[..tail.1]);
        }
        let mut offsets: Vec<usize> = cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
        offsets.push(0);
        offsets.push(bytes.len());
        offsets.sort_unstable();
        offsets.dedup();
        let chunks: Vec<&[u8]> = offsets.windows(2).map(|w| &bytes[w[0]..w[1]]).collect();

        let stream = TcpStream::connect(server()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let replies = exchange(&stream, &chunks);

        prop_assert_eq!(replies.len(), expected.len(), "replies: {:?}", replies);
        for (reply, id) in replies.iter().zip(&expected) {
            let parsed = json::parse(reply.trim_end());
            prop_assert!(parsed.is_ok(), "not JSON: {reply}");
            let parsed = parsed.unwrap();
            prop_assert_eq!(parsed.get("id").and_then(Json::as_str), id.as_deref(), "{}", reply);
        }

        // The server still answers a fresh connection.
        let fresh = TcpStream::connect(server()).expect("connect");
        fresh.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let health = exchange(&fresh, &[b"{\"op\":\"health\",\"id\":\"h\"}\n"]);
        prop_assert_eq!(health.len(), 1);
        prop_assert!(health[0].contains("\"status\":\"ok\""), "{}", health[0]);
    }
}
