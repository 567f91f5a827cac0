//! Warm-handoff compatibility gating over the wire.
//!
//! The SNAP verbs ship `COQLSNP1` snapshots between processes. These
//! tests drive two live servers over TCP and pin down the trust model:
//! a clean export/import roundtrip preloads every verdict; any version
//! skew or corruption is refused atomically (the cache is never
//! half-loaded) and counted as a quarantine; the verbs are disabled
//! without `--allow-handoff`; and a commit that doesn't match its
//! `SNAPBEGIN` declaration is rejected.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_service::{
    crc32, from_hex, serve_with_shutdown, to_hex, Engine, EngineConfig, ServerConfig, Shutdown,
    FINGERPRINT_VERSION, FORMAT_VERSION,
};

fn start_server(allow_handoff: bool) -> (SocketAddr, Shutdown, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 256,
        ..EngineConfig::default()
    }));
    let shutdown = Shutdown::new();
    let handle = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            let config = ServerConfig { allow_handoff, ..ServerConfig::default() };
            serve_with_shutdown(listener, engine, config, shutdown).expect("serve");
        })
    };
    (addr, shutdown, handle)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    }

    fn read_until(&mut self, end: &str) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            self.reader.read_line(&mut l).expect("read multi-line reply");
            let l = l.trim_end().to_string();
            if l == end {
                return lines;
            }
            lines.push(l);
        }
    }

    fn stat(&mut self, key: &str) -> String {
        let first = self.send("STATS");
        let mut lines = self.read_until("END");
        lines.insert(0, first);
        lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{key} ")))
            .unwrap_or_else(|| panic!("STATS has no `{key}`: {lines:?}"))
            .to_string()
    }
}

/// Registers the standard schema and warms the cache with `n` distinct
/// decided pairs.
fn warm(client: &mut Client, n: usize) {
    let reply = client.send("SCHEMA app R(A,B); S(C)");
    assert!(reply.starts_with("OK"), "{reply}");
    for k in 0..n {
        let reply = client.send(&format!(
            "CHECK app select x.B from x in R where x.A = {k} ;; select x.B from x in R"
        ));
        assert!(reply.starts_with("OK holds=true"), "{reply}");
    }
}

/// Pulls a `SNAPEXPORT` payload, returning `(bytes, declared entries)`.
fn export(client: &mut Client) -> (Vec<u8>, u64) {
    let head = client.send("SNAPEXPORT");
    assert!(head.starts_with("OK "), "{head}");
    let field = |key: &str| {
        head.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no `{key}` in `{head}`"))
    };
    assert_eq!(field("format="), FORMAT_VERSION as u64, "{head}");
    assert_eq!(field("fpver="), FINGERPRINT_VERSION as u64, "{head}");
    let hex: String = client.read_until("END").concat();
    let bytes = from_hex(&hex).expect("exported hex decodes");
    assert_eq!(bytes.len() as u64, field("bytes="), "declared length matches payload");
    (bytes, field("entries="))
}

/// Pushes snapshot bytes through SNAPBEGIN/SNAPDATA/SNAPCOMMIT and
/// returns the commit reply (OK or ERR — the caller asserts).
fn push(client: &mut Client, bytes: &[u8]) -> String {
    push_declaring(client, bytes, bytes.len())
}

fn push_declaring(client: &mut Client, bytes: &[u8], declared: usize) -> String {
    let reply = client.send(&format!("SNAPBEGIN {declared}"));
    assert!(reply.starts_with("OK staging="), "{reply}");
    let hex = to_hex(bytes);
    for chunk in hex.as_bytes().chunks(4096) {
        let chunk = std::str::from_utf8(chunk).unwrap();
        let reply = client.send(&format!("SNAPDATA {chunk}"));
        assert!(reply.starts_with("OK received="), "{reply}");
    }
    client.send("SNAPCOMMIT")
}

/// Reseals the header CRC after a deliberate header edit, so the test
/// exercises the *version* gate rather than the checksum gate.
fn reseal_header(bytes: &mut [u8]) {
    let crc = crc32(&bytes[..24]);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn export_import_roundtrip_preloads_every_verdict() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let (addr_b, stop_b, h_b) = start_server(true);
    let mut a = Client::connect(addr_a);
    warm(&mut a, 5);
    let (bytes, entries) = export(&mut a);
    assert_eq!(entries, 5);

    let mut b = Client::connect(addr_b);
    // The importer needs the schema too — handoff pushes schemas first.
    assert!(b.send("SCHEMA app R(A,B); S(C)").starts_with("OK"));
    let commit = push(&mut b, &bytes);
    assert_eq!(commit, format!("OK imported={entries} entries={entries}"), "{commit}");
    assert_eq!(b.stat("cache.entries"), "5");
    assert_eq!(b.stat("persist.recovered_entries"), "5");

    // A preloaded verdict is served from cache: hits goes 0 → 1.
    let hits_before: u64 = b.stat("cache.hits").parse().unwrap();
    let reply = b.send("CHECK app select x.B from x in R where x.A = 0 ;; select x.B from x in R");
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    let hits_after: u64 = b.stat("cache.hits").parse().unwrap();
    assert_eq!(hits_after, hits_before + 1, "imported verdict must be a cache hit");

    stop_a.trigger();
    stop_b.trigger();
    h_a.join().unwrap();
    h_b.join().unwrap();
}

#[test]
fn version_skew_is_refused_and_quarantined_never_half_loaded() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let mut a = Client::connect(addr_a);
    warm(&mut a, 3);
    let (good, _) = export(&mut a);

    // Byte 8 is the low byte of FORMAT_VERSION, byte 12 of
    // FINGERPRINT_VERSION (both little-endian u32).
    for (offset, what) in [(8usize, "format"), (12usize, "fingerprint")] {
        let (addr_b, stop_b, h_b) = start_server(true);
        let mut b = Client::connect(addr_b);
        let mut skewed = good.clone();
        skewed[offset] = skewed[offset].wrapping_add(1);
        reseal_header(&mut skewed);
        let commit = push(&mut b, &skewed);
        assert!(commit.starts_with("ERR SNAPREJECTED"), "{what}: {commit}");
        assert!(commit.contains("version"), "{what} refusal names the version: {commit}");
        assert_eq!(b.stat("cache.entries"), "0", "{what}: nothing may be half-loaded");
        assert_eq!(b.stat("persist.quarantined"), "1", "{what}: refusal is counted");
        stop_b.trigger();
        h_b.join().unwrap();
    }
    stop_a.trigger();
    h_a.join().unwrap();
}

#[test]
fn corruption_is_refused_atomically() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let mut a = Client::connect(addr_a);
    warm(&mut a, 4);
    let (good, _) = export(&mut a);

    let (addr_b, stop_b, h_b) = start_server(true);
    let mut b = Client::connect(addr_b);
    // Flip one byte in the LAST record: the earlier records verify fine,
    // but all-or-nothing loading must still import nothing.
    let mut corrupt = good.clone();
    let last = corrupt.len() - 40;
    corrupt[last] ^= 0xff;
    let commit = push(&mut b, &corrupt);
    assert!(commit.starts_with("ERR SNAPREJECTED"), "{commit}");
    assert_eq!(b.stat("cache.entries"), "0", "no partial preload past valid records");
    assert_eq!(b.stat("persist.quarantined"), "1");

    // Bad hex in SNAPDATA clears the staging area and rejects too.
    assert!(b.send("SNAPBEGIN 10").starts_with("OK"));
    let reply = b.send("SNAPDATA zz-not-hex");
    assert!(reply.starts_with("ERR SNAPREJECTED"), "{reply}");
    let reply = b.send("SNAPCOMMIT");
    assert!(reply.starts_with("ERR"), "staging must have been cleared: {reply}");

    stop_a.trigger();
    stop_b.trigger();
    h_a.join().unwrap();
    h_b.join().unwrap();
}

#[test]
fn snap_verbs_require_allow_handoff() {
    let (addr, stop, handle) = start_server(false);
    let mut c = Client::connect(addr);
    for verb in ["SNAPEXPORT", "SNAPBEGIN 10", "SNAPDATA 00", "SNAPCOMMIT", "SNAPABORT"] {
        let reply = c.send(verb);
        assert!(reply.starts_with("ERR"), "{verb}: {reply}");
        assert!(reply.contains("--allow-handoff"), "{verb} names the flag: {reply}");
    }
    stop.trigger();
    handle.join().unwrap();
}

#[test]
fn commit_must_match_declared_length() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let mut a = Client::connect(addr_a);
    warm(&mut a, 2);
    let (good, _) = export(&mut a);

    let (addr_b, stop_b, h_b) = start_server(true);
    let mut b = Client::connect(addr_b);
    // Declare more than we send: the commit is refused, not padded.
    let commit = push_declaring(&mut b, &good, good.len() + 8);
    assert!(commit.starts_with("ERR SNAPREJECTED"), "{commit}");
    assert_eq!(b.stat("cache.entries"), "0");
    // SNAPABORT then a clean push works on the same connection.
    assert_eq!(b.send("SNAPABORT"), "OK aborted");
    let commit = push(&mut b, &good);
    assert!(commit.starts_with("OK imported=2"), "{commit}");

    stop_a.trigger();
    stop_b.trigger();
    h_a.join().unwrap();
    h_b.join().unwrap();
}
