//! The `STATS`/`METRICS` contract of one `coqld`: the key list and the
//! exposition shape (captured in `tests/golden/`) that clients parse, and
//! agreement between the two views on every metric they share.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_service::{serve_with_shutdown, Engine, EngineConfig, ServerConfig, Shutdown};

struct TestServer {
    addr: SocketAddr,
    shutdown: Shutdown,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn stop(self) {
        self.shutdown.trigger();
        self.handle.join().expect("serve thread").expect("clean drain");
    }
}

fn start_server() -> TestServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 64,
        ..EngineConfig::default()
    }));
    let shutdown = Shutdown::new();
    let handle = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            serve_with_shutdown(listener, engine, ServerConfig::default(), shutdown)
        })
    };
    TestServer { addr, shutdown, handle }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to coqld");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply line");
        line.trim_end().to_string()
    }

    /// Sends one request and reads its reply: through `end` when given
    /// (the terminator included), else one line.
    fn send(&mut self, request: &str, end: Option<&str>) -> Vec<String> {
        writeln!(self.writer, "{request}").unwrap();
        let mut lines = vec![self.line()];
        while end.is_some_and(|end| lines.last().unwrap() != end) {
            lines.push(self.line());
        }
        lines
    }

    /// `STATS` as `(key, value)` pairs in reply order.
    fn stats(&mut self) -> Vec<(String, String)> {
        let mut lines = self.send("STATS", Some("END"));
        lines.pop();
        lines
            .iter()
            .map(|l| {
                let (k, v) = l.split_once(' ').unwrap_or_else(|| panic!("bad STATS line `{l}`"));
                (k.to_string(), v.to_string())
            })
            .collect()
    }
}

/// A `METRICS` reply with every sample value removed: the `# HELP`/
/// `# TYPE` lines and the series names with their labels.
fn without_values(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| match l.starts_with('#') {
            true => l.clone(),
            false => l.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample `{l}`")).0.to_string(),
        })
        .collect()
}

/// The lines cut into family blocks (a `# HELP` line and the lines up to
/// the next one), sorted: Prometheus gives the order of families no
/// meaning, while each block's help, type, and series compare byte for
/// byte.
fn sorted_blocks(lines: &[String]) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in lines {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().unwrap();
        block.push_str(line);
        block.push('\n');
    }
    blocks.sort();
    blocks
}

fn golden_lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

#[test]
fn fresh_server_matches_the_golden_stats_and_metrics() {
    let server = start_server();
    let mut client = Client::connect(server.addr);
    let keys: Vec<String> = client.stats().into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, golden_lines(include_str!("golden/coqld_stats_keys.txt")));

    let mut metrics = client.send("METRICS", Some("# EOF"));
    assert_eq!(metrics.pop().as_deref(), Some("# EOF"));
    assert_eq!(
        sorted_blocks(&without_values(&metrics)),
        sorted_blocks(&golden_lines(include_str!("golden/coqld_metrics.txt")))
    );
    drop(client);
    server.stop();
}

/// Every `STATS` key that has a `METRICS` family, with that family's
/// series (the path keys read the labeled latency summary).
const SHARED: [(&str, &str); 41] = [
    ("uptime_seconds", "coqld_uptime_seconds"),
    ("decisions", "coqld_decisions_total"),
    ("computed", "coqld_computed_total"),
    ("coalesced", "coqld_coalesced_total"),
    ("inflight", "coqld_inflight"),
    ("timeouts", "coqld_timeouts_total"),
    ("panics", "coqld_panics_total"),
    ("schemas", "coqld_schemas"),
    ("prepared", "coqld_prepared_queries"),
    ("server.accepted", "coqld_server_accepted_total"),
    ("server.shed", "coqld_server_shed_total"),
    ("server.oversized", "coqld_server_oversized_total"),
    ("server.idle_closed", "coqld_server_idle_closed_total"),
    ("server.conn_panics", "coqld_server_conn_panics_total"),
    ("server.slow_requests", "coqld_server_slow_requests_total"),
    ("cache.hits", "coqld_cache_hits_total"),
    ("cache.misses", "coqld_cache_misses_total"),
    ("cache.evictions", "coqld_cache_evictions_total"),
    ("cache.entries", "coqld_cache_entries"),
    ("cache.capacity", "coqld_cache_capacity"),
    ("cache.shards", "coqld_cache_shards"),
    ("cache.hit_rate", "coqld_cache_hit_rate"),
    ("cache.effective_hit_rate", "coqld_cache_effective_hit_rate"),
    ("unions.decisions", "coqld_union_decisions_total"),
    ("unions.hits", "coqld_union_hits_total"),
    ("unions.entries", "coqld_union_memo_entries"),
    ("persist.recovered_entries", "coqld_persist_recovered_entries_total"),
    ("persist.snapshots_written", "coqld_persist_snapshots_written_total"),
    ("persist.snapshot_failures", "coqld_persist_snapshot_failures_total"),
    ("persist.quarantined", "coqld_persist_quarantined_total"),
    ("persist.cert_rejected", "coqld_persist_cert_rejected_total"),
    ("persist.snapshot_age_ms", "coqld_persist_snapshot_age_ms"),
    ("path.flat.count", "coqld_path_latency_us_count{path=\"flat\"}"),
    ("path.flat.p50_us", "coqld_path_latency_us{path=\"flat\",quantile=\"0.5\"}"),
    ("path.flat.p99_us", "coqld_path_latency_us{path=\"flat\",quantile=\"0.99\"}"),
    ("path.no-empty-sets.count", "coqld_path_latency_us_count{path=\"no-empty-sets\"}"),
    ("path.no-empty-sets.p50_us", "coqld_path_latency_us{path=\"no-empty-sets\",quantile=\"0.5\"}"),
    (
        "path.no-empty-sets.p99_us",
        "coqld_path_latency_us{path=\"no-empty-sets\",quantile=\"0.99\"}",
    ),
    ("path.full.count", "coqld_path_latency_us_count{path=\"full\"}"),
    ("path.full.p50_us", "coqld_path_latency_us{path=\"full\",quantile=\"0.5\"}"),
    ("path.full.p99_us", "coqld_path_latency_us{path=\"full\",quantile=\"0.99\"}"),
];

#[test]
fn stats_and_metrics_agree_after_a_mixed_workload() {
    let server = start_server();
    let mut client = Client::connect(server.addr);
    let ok = |reply: &[String]| reply[0].starts_with("OK");
    assert!(ok(&client.send("SCHEMA app R(A, B); S(C)", None)));
    let pair = "select x.B from x in R where x.A = 1 ;; select y.B from y in R";
    assert!(ok(&client.send(&format!("CHECK app {pair}"), None)));
    assert!(ok(&client.send(&format!("CHECK app {pair}"), None)));
    let equiv = "select [a: x.A] from x in R ;; select [a: y.A] from y in R";
    assert!(ok(&client.send(&format!("EQUIV app {equiv}"), None)));
    let union = "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2 \
                 ;; select y.B from y in R";
    assert!(ok(&client.send(&format!("UCHECK app {union}"), None)));
    let grouped = "select [a: x.A, g: (select z.C from z in S where z.C = x.A)] from x in R ;; \
                   select [a: y.A, g: (select w.C from w in S)] from y in R";
    assert!(ok(&client.send(&format!("CERT CHECK app {grouped}"), Some("END"))));
    let timeout =
        client.send("BUDGET 1 CHECK app select x.A from x in R ;; select y.A from y in R", None);
    assert!(timeout[0].starts_with("ERR DEADLINE"), "{timeout:?}");

    let stats = client.stats();
    let mut metrics = client.send("METRICS", Some("# EOF"));
    metrics.pop();
    let stat = |key: &str| {
        let found = stats.iter().find(|(k, _)| k == key);
        found.unwrap_or_else(|| panic!("STATS has no `{key}`")).1.parse::<f64>().unwrap()
    };
    assert!(stat("timeouts") >= 1.0 && stat("unions.decisions") == 1.0, "{stats:?}");
    assert!(stat("path.full.count") >= 1.0, "the grouped pair runs the full procedure");
    for (key, series) in SHARED {
        let sample = metrics.iter().find_map(|l| l.strip_prefix(series)?.strip_prefix(' '));
        let sample = sample.unwrap_or_else(|| panic!("METRICS has no `{series}`"));
        let value = sample.parse::<f64>().unwrap();
        // Uptime may tick over between the two scrapes.
        let slack = if key == "uptime_seconds" { 1.0 } else { 0.0 };
        assert!((value - stat(key)).abs() <= slack, "{key} {} vs {series} {value}", stat(key));
    }
    drop(client);
    server.stop();
}
