//! A keep-alive HTTP/1.1 client over one TCP connection: the load the
//! daemon sees is exactly these bytes. Failures are returned, never
//! panicked on, so the benchmark can count them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One open connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    request: Vec<u8>,
}

/// A complete response.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Conn {
    /// Connects with a generous read timeout: a wedged daemon surfaces
    /// as a failed request, not a hung benchmark.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set nodelay: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            request: Vec::with_capacity(256),
        })
    }

    /// Sends `POST /query` with `body` and reads the whole response.
    pub fn post_query(&mut self, body: &str) -> Result<Reply, String> {
        self.request.clear();
        self.request.extend_from_slice(
            format!(
                "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        self.request.extend_from_slice(body.as_bytes());
        self.stream
            .write_all(&self.request)
            .map_err(|e| format!("write: {e}"))?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read head: {e}"))?;
            if n == 0 {
                return Err("connection closed before a response head".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let (status, content_length) = parse_head(head)?;
        let mut body = self.buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read body: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            body.extend_from_slice(&chunk[..n]);
        }
        if body.len() != content_length {
            return Err(format!(
                "{} body bytes for Content-Length {content_length}",
                body.len()
            ));
        }
        Ok(Reply { status, body })
    }
}

/// `(status, content_length)` of a response head.
fn parse_head(head: &str) -> Result<(u16, usize), String> {
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let content_length = head
        .split("\r\n")
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response without Content-Length")?;
    Ok((status, content_length))
}
