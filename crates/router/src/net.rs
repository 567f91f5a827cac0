//! The router's shard-side connections. (Its client-facing side is
//! `co_service::front`, shared with coqld.)

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A buffered, line-oriented connection to one coqld shard. Reads and
/// writes whole protocol lines.
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineConn {
    /// Dials `addr` with a bounded connect and installs the I/O timeouts.
    pub fn connect(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> io::Result<LineConn> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(ErrorKind::InvalidInput, format!("unresolvable `{addr}`"))
        })?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let writer = stream.try_clone()?;
        Ok(LineConn { reader: BufReader::new(stream), writer })
    }

    /// Adjusts the read timeout (per-request deadlines on pooled
    /// connections).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Writes one protocol line (newline appended) and flushes.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads one line, newline and trailing `\r` stripped. EOF before any
    /// byte is `UnexpectedEof` — on a pooled connection that means the
    /// shard hung up and the caller should redial. EOF *mid-line* is also
    /// `UnexpectedEof`: a peer that died while writing leaves a truncated
    /// reply (`OK hol`), and treating that fragment as a complete line
    /// would forward a wrong answer instead of failing over.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "connection closed"));
        }
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                format!("connection closed mid-line after {n} byte(s)"),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads lines until one equals `terminator` (returned lines exclude
    /// it). Used for the multi-line `STATS`/`METRICS`/`EXPLAIN`/
    /// `SNAPEXPORT` replies, whose terminators are `END` / `# EOF`.
    pub fn read_until(&mut self, terminator: &str) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == terminator {
                return Ok(lines);
            }
            lines.push(line);
        }
    }
}
