//! The line-protocol front end `coqld` and `coqld-router` share: accept →
//! admission (excess connections shed with `ERR OVERLOADED`) → bounded
//! line read under an absolute per-line deadline → per-line panic wall →
//! dispatch → reply write → `QUIT`/`SHUTDOWN` → drain.
//!
//! A process supplies only a [`LineService`]: a handler that maps one
//! request line to a [`Reply`], plus the per-connection state it keeps
//! between lines. Everything between the socket and that handler lives
//! here once, so the two processes cannot drift apart on framing,
//! limits, or failure handling.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::faults;
use crate::stats::ServerStats;
use crate::sync;

/// The connection limits a front end enforces (documented on the
/// same-named [`crate::ServerConfig`] fields).
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct Limits {
    pub max_connections: usize,
    pub read_timeout: Option<Duration>,
    pub write_timeout: Option<Duration>,
    pub max_line_bytes: usize,
    pub drain_timeout: Duration,
}

/// What a handler answers to one request line.
pub enum Reply {
    /// No reply (blank and `#` comment lines).
    None,
    /// One reply, written with a trailing newline (it may itself span
    /// several lines, e.g. an `END`-terminated body).
    Line(String),
    /// Answer `OK bye` and close the connection.
    Quit,
    /// Answer `OK draining`, close the connection, and trigger shutdown.
    Shutdown,
}

/// The per-process half of a line-protocol server.
pub trait LineService: Send + Sync + 'static {
    /// Protocol state kept between the lines of one connection; created
    /// when the connection is admitted and dropped with it.
    type Conn: Default;

    /// Whether replies pass through the `fault-inject` reply hooks
    /// ([`faults::reply_fault`], [`faults::reply_padding`]). Their
    /// triggers are process-global counters, so only the process the
    /// faults target may consume them.
    const REPLY_FAULTS: bool = false;

    /// The counters the front end ticks (accepts, sheds, oversized lines,
    /// idle closes, contained panics).
    fn counters(&self) -> &ServerStats;

    /// Answers one request line (newline stripped).
    fn handle(self: &Arc<Self>, line: &str, conn: &mut Self::Conn) -> Reply;
}

/// A counting gate bounding live connection threads (std-only semaphore).
struct Gate {
    state: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

/// RAII slot in the [`Gate`]: released on drop, so a handler that panics
/// or returns early can never leak its connection slot.
struct GateGuard {
    gate: Arc<Gate>,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate { state: Mutex::new(0), freed: Condvar::new(), max: max.max(1) }
    }

    /// Claims a slot if one is free; `None` means shed the connection.
    fn try_acquire(self: &Arc<Self>) -> Option<GateGuard> {
        let mut live = sync::lock(&self.state);
        if *live >= self.max {
            return None;
        }
        *live += 1;
        Some(GateGuard { gate: Arc::clone(self) })
    }

    /// Waits until no slot is held or `deadline` passes.
    fn wait_idle(&self, deadline: Instant) {
        let mut live = sync::lock(&self.state);
        while *live > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            live = sync::wait_timeout(&self.freed, live, remaining);
        }
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        *sync::lock(&self.gate.state) -= 1;
        self.gate.freed.notify_all();
    }
}

/// Handle for stopping a [`serve_lines`] loop from another thread (or
/// from the `SHUTDOWN` verb). Cheap to clone.
#[derive(Clone, Default)]
pub struct Shutdown {
    stop: Arc<AtomicBool>,
    /// The listener [`Shutdown::trigger`] pokes to wake a blocked accept.
    addr: Arc<Mutex<Option<SocketAddr>>>,
}

impl Shutdown {
    /// A fresh, untriggered handle.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Requests shutdown: the accept loop stops taking connections,
    /// in-flight connections drain, and the serve loop returns.
    /// Idempotent.
    pub fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake a blocked accept() with a throwaway connection; best-effort
        // (if it fails, the next real connection unblocks the loop).
        if let Some(addr) = *sync::lock(&self.addr) {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Runs the accept loop until `shutdown` is triggered (or the listener
/// errors). On shutdown it stops accepting, closes the listener, waits up
/// to [`Limits::drain_timeout`] for in-flight connections, and returns
/// `Ok(())`.
pub fn serve_lines<S: LineService>(
    listener: TcpListener,
    service: &Arc<S>,
    limits: Limits,
    shutdown: &Shutdown,
) -> io::Result<()> {
    *sync::lock(&shutdown.addr) = listener.local_addr().ok();
    let gate = Arc::new(Gate::new(limits.max_connections));
    let counters = service.counters();
    loop {
        if shutdown.is_triggered() {
            break;
        }
        let (stream, _peer) = listener.accept()?;
        counters.accepted.fetch_add(1, Ordering::Relaxed);
        if shutdown.is_triggered() {
            // Likely the wake-up connection from Shutdown::trigger.
            break;
        }
        match gate.try_acquire() {
            None => {
                counters.shed.fetch_add(1, Ordering::Relaxed);
                shed(stream);
            }
            Some(guard) => {
                let service = Arc::clone(service);
                let shutdown = shutdown.clone();
                thread::spawn(move || {
                    let _slot = guard;
                    let served = catch_unwind(AssertUnwindSafe(|| {
                        serve_connection(stream, &service, limits, &shutdown)
                    }));
                    if served.is_err() {
                        service.counters().conn_panics.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    }
    // Stop accepting before draining so new clients get connection-refused
    // instead of a socket that will never be read.
    drop(listener);
    gate.wait_idle(Instant::now() + limits.drain_timeout);
    Ok(())
}

/// Runs `tick` every `interval` on a background thread until `shutdown`
/// triggers. Sleeps in slices of at most 50 ms, so a drain is never stuck
/// behind a long interval.
pub fn spawn_ticker(
    interval: Duration,
    shutdown: &Shutdown,
    mut tick: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    let shutdown = shutdown.clone();
    let interval = interval.max(Duration::from_millis(1));
    let slice = interval.min(Duration::from_millis(50));
    thread::spawn(move || {
        let mut next = Instant::now() + interval;
        while !shutdown.is_triggered() {
            thread::sleep(slice);
            if Instant::now() >= next && !shutdown.is_triggered() {
                tick();
                next = Instant::now() + interval;
            }
        }
    })
}

/// Best-effort overload reply on a connection we refuse to serve.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(b"ERR OVERLOADED connection limit reached, retry later\n");
}

fn serve_connection<S: LineService>(
    stream: TcpStream,
    service: &Arc<S>,
    limits: Limits,
    shutdown: &Shutdown,
) -> io::Result<()> {
    // The socket timeout bounds each read() syscall; read_bounded_line
    // layers an absolute per-line deadline of the same duration on top.
    stream.set_read_timeout(limits.read_timeout)?;
    stream.set_write_timeout(limits.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut conn = S::Conn::default();
    let counters = service.counters();
    let write = |writer: &mut TcpStream, text: &str| write_reply(writer, text, S::REPLY_FAULTS);
    loop {
        if shutdown.is_triggered() {
            break;
        }
        let line = match read_bounded_line(&mut reader, limits.max_line_bytes, limits.read_timeout)?
        {
            LineRead::Eof => break,
            LineRead::IdleTimeout => {
                counters.idle_closed.fetch_add(1, Ordering::Relaxed);
                break;
            }
            LineRead::TooLarge => {
                counters.oversized.fetch_add(1, Ordering::Relaxed);
                let reply = format!("ERR TOOLARGE line exceeds {} bytes", limits.max_line_bytes);
                if write(&mut writer, &reply).is_err() {
                    break;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        // One panicking request must not take the connection down with it.
        let reply = catch_unwind(AssertUnwindSafe(|| service.handle(&line, &mut conn)))
            .unwrap_or_else(|_| {
                counters.conn_panics.fetch_add(1, Ordering::Relaxed);
                Reply::Line("ERR INTERNAL request handler panicked".to_string())
            });
        match reply {
            Reply::None => {}
            Reply::Line(text) => {
                if write(&mut writer, &text).is_err() {
                    break;
                }
            }
            Reply::Quit => {
                let _ = write(&mut writer, "OK bye");
                break;
            }
            Reply::Shutdown => {
                let _ = write(&mut writer, "OK draining");
                shutdown.trigger();
                break;
            }
        }
    }
    Ok(())
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete line (newline stripped, trailing `\r` trimmed).
    Line(String),
    /// The line exceeded the length cap; its bytes were discarded.
    TooLarge,
    /// Clean end of stream.
    Eof,
    /// The per-line deadline passed before a newline arrived.
    IdleTimeout,
}

/// Reads one `\n`-terminated line of at most `max` bytes, giving the
/// client `per_line` of wall-clock time for the whole line (so a client
/// dribbling one byte per socket-timeout interval still gets cut off).
/// Oversized lines are consumed and discarded up to their newline.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    per_line: Option<Duration>,
) -> io::Result<LineRead> {
    let deadline = per_line.map(|t| Instant::now() + t);
    let mut line: Vec<u8> = Vec::new();
    let mut too_large = false;
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(LineRead::IdleTimeout);
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(LineRead::IdleTimeout);
            }
            Err(e) => return Err(e),
        };
        let eof = buf.is_empty();
        let newline = buf.iter().position(|&b| b == b'\n');
        let consumed = newline.map_or(buf.len(), |pos| pos + 1);
        if !too_large {
            line.extend_from_slice(&buf[..newline.unwrap_or(buf.len())]);
            if line.len() > max {
                too_large = true;
                line.clear();
            }
        }
        reader.consume(consumed);
        if eof || newline.is_some() {
            if too_large {
                return Ok(LineRead::TooLarge);
            }
            if eof && line.is_empty() {
                return Ok(LineRead::Eof);
            }
            // A final unterminated line (EOF, no newline) still gets served.
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
        }
    }
}

/// Writes one reply: the payload, then its newline, then a flush. With
/// `with_faults` set the `fault-inject` reply hooks may stall, garble,
/// pad or truncate it (no-ops unless the feature is on and armed).
fn write_reply(writer: &mut TcpStream, text: &str, with_faults: bool) -> io::Result<()> {
    if with_faults {
        match faults::reply_fault() {
            faults::ReplyFault::None => {}
            faults::ReplyFault::Stall(ms) => {
                // Delay, then answer normally: the reply is correct but
                // slow (a hedge should win the race against it).
                thread::sleep(Duration::from_millis(ms));
            }
            faults::ReplyFault::Garble => {
                // Corrupt every payload byte but keep the line framing, so
                // the peer reads a complete line of garbage — its reply
                // validation, not its framing, must catch it.
                let garbled: Vec<u8> =
                    text.bytes().map(|b| if b == b'\n' { b } else { b ^ 0x55 }).collect();
                writer.write_all(&garbled)?;
                writer.write_all(b"\n")?;
                return writer.flush();
            }
            faults::ReplyFault::DropMidReply => {
                // Write half the reply, then sever the connection without
                // the terminating newline: the peer sees a truncated line
                // ending in EOF and must treat it as a failure, not an
                // answer.
                writer.write_all(&text.as_bytes()[..text.len() / 2])?;
                writer.flush()?;
                let _ = writer.shutdown(std::net::Shutdown::Both);
                return Err(io::Error::new(ErrorKind::ConnectionAborted, "fault-inject: drop"));
            }
        }
    }
    writer.write_all(text.as_bytes())?;
    let pad = if with_faults { faults::reply_padding() } else { 0 };
    if pad > 0 {
        writer.write_all(&vec![b'#'; pad])?;
    }
    writer.write_all(b"\n")?;
    writer.flush()
}
