//! The client side of the coqld line protocol: one keep-alive connection,
//! reply framing, and parsers for `EXPLAIN` and `STATS` bodies.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One keep-alive client connection. `TCP_NODELAY` is set and every
/// request goes out in a single write, so a stall between request and
/// reply is the server's, not this client's.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { writer: stream, reader, out: Vec::with_capacity(4096) })
    }

    /// Sends `line` and reads the whole reply: one line, or — when
    /// `multiline` and the reply is not an `ERR` — every line through `END`.
    /// Returns the reply (lines joined by `\n`, `END` kept) and the bytes
    /// moved in both directions.
    pub fn call(&mut self, line: &str, multiline: bool) -> io::Result<(String, usize)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        let mut bytes = self.out.len();
        let mut reply = String::new();
        bytes += self.read_line_into(&mut reply)?;
        if multiline && !reply.starts_with("ERR") {
            loop {
                let mut next = String::new();
                bytes += self.read_line_into(&mut next)?;
                reply.push('\n');
                reply.push_str(&next);
                if next == "END" {
                    break;
                }
            }
        }
        Ok((reply, bytes))
    }

    /// Reads one line without its terminator; EOF is an error.
    fn read_line_into(&mut self, into: &mut String) -> io::Result<usize> {
        let n = self.reader.read_line(into)?;
        if n == 0 || !into.ends_with('\n') {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-reply"));
        }
        into.pop();
        if into.ends_with('\r') {
            into.pop();
        }
        Ok(n)
    }
}

/// The `explain.*` lines of one reply. Keys are the line's name with the
/// `explain.` prefix removed (`total_us`, `kernel.hom_probes`,
/// `router.forward_us`, …); non-numeric values are skipped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Explain {
    pub fields: BTreeMap<String, u64>,
}

impl Explain {
    pub fn get(&self, key: &str) -> u64 {
        self.fields.get(key).copied().unwrap_or(0)
    }

    /// Every `kernel.<counter>` value except `threads_used`.
    pub fn kernel_counters(&self) -> BTreeMap<&str, u64> {
        self.fields
            .iter()
            .filter_map(|(k, &v)| k.strip_prefix("kernel.").map(|name| (name, v)))
            .filter(|(name, _)| *name != "threads_used")
            .collect()
    }
}

/// Parses the `explain.*` lines out of a multi-line reply. `None` when the
/// reply carries none (an `ERR`, or a request sent without `EXPLAIN`).
pub fn parse_explain(reply: &str) -> Option<Explain> {
    let mut ex = Explain::default();
    for line in reply.lines() {
        let Some(rest) = line.strip_prefix("explain.") else { continue };
        let Some((key, value)) = rest.split_once(' ') else { continue };
        if let Ok(v) = value.trim().parse::<u64>() {
            ex.fields.insert(key.to_string(), v);
        }
    }
    (!ex.fields.is_empty()).then_some(ex)
}

/// The certificate blocks of a `CERT` reply: the lines from the first
/// block header through the last block terminator. (A router splices its
/// own `explain.router.*` lines in after the blocks, before `END`.)
pub fn cert_text(reply: &str) -> Option<String> {
    let lines: Vec<&str> = reply.lines().collect();
    let first = lines.iter().position(|l| l.starts_with("COCERT1") || l.starts_with("COUNION1"))?;
    let last = lines.iter().rposition(|&l| l == "COCERTEND" || l == "COUNIONEND")?;
    (last >= first).then(|| lines[first..=last].iter().map(|l| format!("{l}\n")).collect())
}

/// `key=value` lookup in a verdict line (`OK holds=true path=… cached=…`).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Parses a `STATS` body (`<key> <value>` lines through `END`); values
/// that are not numbers are skipped.
pub fn parse_stats(reply: &str) -> BTreeMap<String, f64> {
    reply
        .lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(' ')?;
            Some((k.to_string(), v.trim().parse::<f64>().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUTED_EXPLAIN: &str = "OK holds=true path=full cached=false fp1=ab fp2=cd\n\
        explain.parse_us 12\nexplain.canonicalize_us 7\nexplain.fingerprint_us 3\n\
        explain.prepare_us 40\nexplain.cache_us 1\nexplain.kernel_us 900\n\
        explain.total_us 966\nexplain.kernel.hom_probes 321\n\
        explain.kernel.tree_emptiness_patterns 64\nexplain.kernel.threads_used 1\n\
        explain.router.route_us 70\nexplain.router.forward_us 1100\n\
        explain.router.attempts 1\nexplain.router.hedged 0\n\
        explain.router.shard 127.0.0.1:4000\nEND";

    #[test]
    fn explain_lines_parse_into_named_fields() {
        let ex = parse_explain(ROUTED_EXPLAIN).expect("has explain lines");
        assert_eq!(ex.get("total_us"), 966);
        assert_eq!(ex.get("router.forward_us"), 1100);
        assert_eq!(ex.get("router.attempts"), 1);
        assert_eq!(ex.get("missing"), 0);
        // The shard address is not a number and is skipped.
        assert!(!ex.fields.contains_key("router.shard"));
        let kernel = ex.kernel_counters();
        assert_eq!(kernel.get("hom_probes"), Some(&321));
        assert_eq!(kernel.get("tree_emptiness_patterns"), Some(&64));
        assert!(!kernel.contains_key("threads_used"));
    }

    #[test]
    fn replies_without_explain_lines_parse_to_none() {
        assert_eq!(parse_explain("OK holds=true cached=true"), None);
        assert_eq!(parse_explain("ERR unknown schema `x`"), None);
    }

    #[test]
    fn verdict_fields_are_exact_keys() {
        let line = "OK verdict=not-equivalent forward=true backward=false cached=true";
        assert_eq!(field(line, "forward"), Some("true"));
        assert_eq!(field(line, "backward"), Some("false"));
        assert_eq!(field(line, "ward"), None);
    }

    #[test]
    fn cert_blocks_are_cut_between_verdict_and_end() {
        let reply = "OK holds=true cached=false\nexplain.total_us 5\nCOCERT1 x\nM a b\nCOCERTEND\n\
                     explain.router.route_us 9\nEND";
        assert_eq!(cert_text(reply).as_deref(), Some("COCERT1 x\nM a b\nCOCERTEND\n"));
        assert_eq!(cert_text("OK holds=true\nEND"), None);
    }

    #[test]
    fn stats_bodies_keep_numeric_values() {
        let stats = parse_stats("cache.hits 10\ncache.hit_rate 0.5000\nrouter.shard x\nEND");
        assert_eq!(stats.get("cache.hits"), Some(&10.0));
        assert_eq!(stats.get("cache.hit_rate"), Some(&0.5));
        assert!(!stats.contains_key("router.shard"));
    }
}
