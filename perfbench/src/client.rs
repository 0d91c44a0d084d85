//! The load generator's own keep-alive HTTP/1.1 client: one connection,
//! one request in flight, pre-rendered request bytes, a reused receive
//! buffer. It shares no code with the daemon's HTTP module, so a change
//! to the program's client cannot change the load.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` holding data not yet consumed.
    filled: usize,
    /// Byte range of the last response's body in `buf`.
    body: (usize, usize),
}

/// Render a complete request with a JSON body.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: vec![0; 1 << 16], filled: 0, body: (0, 0) })
    }

    /// Send one pre-rendered request and read the whole response.
    /// Returns the status code; the body is then [`Conn::body`].
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<u16> {
        // The previous response was fully consumed (one request in
        // flight, and the daemon never sends unsolicited bytes).
        self.filled = 0;
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(i) = find(&self.buf[..self.filled], b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("status line"))?;
        let length = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| invalid("content-length"))?;
        let end = head_end + length;
        if self.buf.len() < end {
            self.buf.resize(end.next_power_of_two(), 0);
        }
        while self.filled < end {
            self.fill()?;
        }
        self.body = (head_end, end);
        Ok(status)
    }

    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.filled..])?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        self.filled += n;
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The `answers` array contents of a `/query` response body: everything
/// between `"answers": [` and the closing `]}`. Quotes inside answer
/// strings are escaped, so the marker cannot occur inside a value.
pub fn answers_slice(body: &[u8]) -> Option<&[u8]> {
    const MARKER: &[u8] = b"\"answers\": [";
    let start = find(body, MARKER)? + MARKER.len();
    let end = body.len().checked_sub(2)?;
    (body.get(end..)? == b"]}" && start <= end).then(|| &body[start..end])
}
