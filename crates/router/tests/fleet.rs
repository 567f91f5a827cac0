//! End-to-end fleet tests: a real router in front of real coqld shards,
//! all in-process over loopback TCP.
//!
//! Pins down the tentpole behaviors: cache affinity (α-renamed repeats
//! of one semantic pair land on exactly one shard's cache), verdict
//! correctness through the proxy, `EXPLAIN` augmentation, shed-to-sibling
//! failover past a killed shard, fleet `METRICS` aggregation, warm
//! `HANDOFF` of a new shard, and the client-facing front end's contract
//! (line deadline, line cap, connection cap — the same as coqld's).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use co_router::{serve_router_with_shutdown, Router, RouterConfig};
use co_service::{serve_with_shutdown, Engine, EngineConfig, ServerConfig, Shutdown};

fn start_shard(allow_handoff: bool) -> (SocketAddr, Shutdown, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
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
            serve_with_shutdown(listener, engine, config, shutdown).expect("serve shard");
        })
    };
    (addr, shutdown, handle)
}

fn test_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(100),
        down_after: 2,
        connect_timeout: Duration::from_millis(500),
        forward_timeout: Duration::from_secs(30),
        ..RouterConfig::default()
    }
}

fn start_router(
    shards: &[SocketAddr],
    config: RouterConfig,
) -> (SocketAddr, Arc<Router>, Shutdown, thread::JoinHandle<()>) {
    let labels: Vec<String> = shards.iter().map(|a| a.to_string()).collect();
    let router = Router::new(&labels, config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    let shutdown = router.shutdown_handle();
    let handle = {
        let router = Arc::clone(&router);
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            serve_router_with_shutdown(listener, router, shutdown).expect("serve router");
        })
    };
    (addr, router, shutdown, handle)
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

    fn stat(&mut self, key: &str) -> u64 {
        let first = self.send("STATS");
        let mut lines = self.read_until("END");
        lines.insert(0, first);
        lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{key} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("STATS has no numeric `{key}`: {lines:?}"))
    }
}

const SCHEMA: &str = "SCHEMA app R(A,B); S(C)";
const VARS: [&str; 6] = ["x", "y", "z", "u", "v", "w"];

/// One α-renamed rendering of the semantic pair `filtered-by-k ⊑ all`.
fn pair(k: usize, var: &str) -> String {
    format!("select {var}.B from {var} in R where {var}.A = {k} ;; select {var}.B from {var} in R")
}

#[test]
fn affinity_verdicts_and_explain() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, _router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Client::connect(router_addr);

    let reply = c.send(SCHEMA);
    assert!(reply.starts_with("OK schema=app fp="), "{reply}");
    assert!(reply.ends_with("relations=2 shards=3/3"), "{reply}");

    // 6 α-renamed renderings of each of 4 semantic pairs: every rendering
    // canonicalizes to the same fingerprints, so each pair must land on
    // ONE shard and hit its cache 5 times.
    for k in 0..4 {
        for var in VARS {
            let reply = c.send(&format!("CHECK app {}", pair(k, var)));
            assert!(reply.starts_with("OK holds=true"), "{reply}");
        }
        // The reverse direction routes to the same shard too (the route
        // key is direction-invariant) and is its own cache entry.
        let reverse =
            format!("CHECK app select x.B from x in R ;; select x.B from x in R where x.A = {k}");
        let reply = c.send(&reverse);
        assert!(reply.starts_with("OK holds=false"), "{reply}");
    }

    // Per-shard cache hits: 4 pairs × 5 duplicate renderings. Affinity
    // means the fleet-wide hit total is exactly 20 — a misrouted repeat
    // would recompute (miss) somewhere else instead.
    let mut total_hits = 0;
    let mut shards_with_hits = 0;
    for addr in &addrs {
        let hits = Client::connect(*addr).stat("cache.hits");
        total_hits += hits;
        shards_with_hits += u64::from(hits > 0);
    }
    assert_eq!(total_hits, 20, "every duplicate must be a same-shard cache hit");
    assert!(shards_with_hits >= 1, "at least one shard saw the repeats");

    // EXPLAIN through the router: shard phases plus router phases.
    let first =
        c.send("EXPLAIN CHECK app select q.B from q in R where q.A = 0 ;; select q.B from q in R");
    assert!(first.starts_with("OK holds=true"), "{first}");
    let lines = c.read_until("END");
    for key in [
        "explain.parse_us",
        "explain.router.route_us",
        "explain.router.forward_us",
        "explain.router.attempts",
        "explain.router.shard",
    ] {
        assert!(lines.iter().any(|l| l.starts_with(key)), "missing {key}: {lines:?}");
    }

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

/// `coqld-router --schema name=file` registers a schema file at boot, and
/// such a file may declare one relation per line. The router must push it
/// to the shards as one request line: a raw newline would register only
/// the first relation and put the control connection's replies out of
/// step with its requests.
#[test]
fn multi_line_schema_file_reaches_every_shard_whole() {
    let shards: Vec<_> = (0..2).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());

    // Boot-time registration, exactly as the binary does it.
    let path = std::env::temp_dir().join(format!("fleet-schema-{}.txt", std::process::id()));
    std::fs::write(&path, "R(A, B)\nS(C)\n").unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let (_, relations, acked, total) = router.register_schema("app", text.trim()).unwrap();
    assert_eq!((relations, acked, total), (2, 2, 2));

    // A CHECK over the second relation, through the router and on each
    // shard directly.
    let check = "CHECK app select x.C from x in S where x.C = 1 ;; select y.C from y in S";
    let reply = Client::connect(router_addr).send(check);
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    for addr in &addrs {
        let reply = Client::connect(*addr).send(check);
        assert!(reply.starts_with("OK holds=true"), "shard {addr}: {reply}");
    }

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

#[test]
fn ucheck_duplicates_stay_cache_affine() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, _router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));

    // One semantic union pair, rendered six ways: permuted disjuncts,
    // α-renamed variables, and a duplicated disjunct. The order-invariant
    // union fingerprint routes every rendering to ONE shard, so all five
    // repeats answer from that shard's union memo.
    let renderings = [
        "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2 \
         ;; select y.B from y in R",
        "select x.B from x in R where x.A = 2 or select x.B from x in R where x.A = 1 \
         ;; select y.B from y in R",
        "select u.B from u in R where u.A = 1 or select v.B from v in R where v.A = 2 \
         ;; select w.B from w in R",
        "select p.B from p in R where 2 = p.A or select q.B from q in R where 1 = q.A \
         ;; select r.B from r in R",
        "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2 \
         or select z.B from z in R where z.A = 1 ;; select y.B from y in R",
        "select a.B from a in R where a.A = 2 or select b.B from b in R where b.A = 1 \
         ;; select y1.B from y1 in R",
    ];
    for (i, rendering) in renderings.iter().enumerate() {
        let reply = c.send(&format!("UCHECK app {rendering}"));
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        let expect = if i == 0 { "cached=false" } else { "cached=true" };
        assert!(reply.contains(expect), "rendering {i} answered `{reply}`");
    }

    // Exactly one shard holds the memo entry; the fleet-wide hit total is
    // exactly the repeat count — a misrouted duplicate would recompute
    // (cached=false) on some other shard instead.
    let mut total_hits = 0;
    let mut shards_with_entries = 0;
    for addr in &addrs {
        let mut shard = Client::connect(*addr);
        total_hits += shard.stat("unions.hits");
        shards_with_entries += u64::from(shard.stat("unions.entries") > 0);
    }
    assert_eq!(total_hits, renderings.len() as u64 - 1, "every repeat must hit the same memo");
    assert_eq!(shards_with_entries, 1, "union verdict memoized on exactly one shard");

    // CERT UCHECK passes through the router multi-line, certificate
    // block intact and checkable.
    let first = c.send(&format!("CERT UCHECK app {}", renderings[0]));
    assert!(first.starts_with("OK holds=true"), "{first}");
    let lines = c.read_until("END");
    let body = lines.join("\n");
    let cert = co_cert::UnionCert::parse(&body).expect("parse COUNION1 through router");
    assert!(cert.holds);
    assert_eq!(cert.left, 2);

    // UEQUIV routes by the same unordered key: both directions of the
    // pair stay on the memoized shard (the backward direction is new, the
    // forward one is already hot).
    let reply = c.send(
        "UEQUIV app select x.B from x in R where x.A = 1 or select x.B from x in R \
         ;; select y.B from y in R",
    );
    assert!(reply.starts_with("OK equivalent=true"), "{reply}");

    // Union parse errors are answered by the router locally.
    let before = {
        let first = c.send("STATS");
        let mut lines = c.read_until("END");
        lines.insert(0, first);
        lines
            .iter()
            .find_map(|l| l.strip_prefix("router.local_errors "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("router.local_errors present")
    };
    let reply = c.send("UCHECK app select x.B from x in R or ;; select y.B from y in R");
    assert!(reply.starts_with("ERR"), "{reply}");
    let after = {
        let first = c.send("STATS");
        let mut lines = c.read_until("END");
        lines.insert(0, first);
        lines
            .iter()
            .find_map(|l| l.strip_prefix("router.local_errors "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("router.local_errors present")
    };
    assert_eq!(after, before + 1, "malformed union answered locally, no shard round-trip");

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

#[test]
fn killed_shard_sheds_to_siblings_with_zero_wrong_verdicts() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));

    // Kill one shard outright, then keep serving. Every request must be
    // answered correctly — sheds and retries are allowed, wrong verdicts
    // and router crashes are not.
    let (dead_addr, dead_stop, _) = &shards[1];
    dead_stop.trigger();
    for k in 0..8 {
        for var in &VARS[..3] {
            let reply = c.send(&format!("CHECK app {}", pair(k, var)));
            assert!(
                reply.starts_with("OK holds=true"),
                "request after shard kill answered `{reply}`"
            );
        }
    }

    // Within a couple of probe intervals the prober drains the corpse:
    // SHARDS reports it down.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let first = c.send("SHARDS");
        let mut lines = c.read_until("END");
        lines.insert(0, first);
        let dead_line = lines
            .iter()
            .find(|l| l.starts_with(&dead_addr.to_string()))
            .unwrap_or_else(|| panic!("SHARDS lost {dead_addr}: {lines:?}"))
            .clone();
        if dead_line.contains("up=false") {
            break;
        }
        assert!(Instant::now() < deadline, "shard never marked down: {dead_line}");
        thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(router.shard_addrs().len(), 3, "membership is static; only liveness changed");

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        let _ = h.join();
    }
}

#[test]
fn open_breaker_cuts_traffic_then_recloses_after_restart() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let config = RouterConfig {
        breaker_open_for: Duration::from_millis(400),
        breaker_max_open: Duration::from_millis(1600),
        ..test_config()
    };
    let (router_addr, _router, stop, handle) = start_router(&addrs, config);
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));

    // Warm six semantic pairs so the later hammer is all cache hits (the
    // breaker-window arithmetic below needs the hammer to be fast).
    for k in 0..6 {
        assert!(c.send(&format!("CHECK app {}", pair(k, "x"))).starts_with("OK holds=true"));
    }

    // Kill one shard; one failover round re-computes its pairs on
    // siblings (correct verdicts, now cached there too).
    let (dead_addr, dead_stop, _) = &shards[1];
    dead_stop.trigger();
    for k in 0..6 {
        assert!(c.send(&format!("CHECK app {}", pair(k, "x"))).starts_with("OK holds=true"));
    }

    // Failed probes/dials trip the breaker: SHARDS soon shows it Open.
    let shard_line = |c: &mut Client, addr: &SocketAddr| -> String {
        let first = c.send("SHARDS");
        let mut lines = c.read_until("END");
        lines.insert(0, first);
        lines
            .iter()
            .find(|l| l.starts_with(&addr.to_string()))
            .unwrap_or_else(|| panic!("SHARDS lost {addr}: {lines:?}"))
            .clone()
    };
    let field = |line: &str, key: &str| -> String {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(&format!("{key}=")).map(str::to_string))
            .unwrap_or_else(|| panic!("no `{key}=` in `{line}`"))
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let line = shard_line(&mut c, dead_addr);
        if field(&line, "state") == "open" {
            assert_eq!(field(&line, "up"), "false", "{line}");
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {line}");
        thread::sleep(Duration::from_millis(50));
    }

    // While Open the shard receives no request traffic: hammer 18 cached
    // requests and watch its attempt counter stay (nearly) frozen — only
    // an occasional half-open trial may touch it. Without the breaker the
    // dead owner would eat a dial per request for its ~third of the keys.
    let before: u64 = field(&shard_line(&mut c, dead_addr), "attempts").parse().unwrap();
    for _ in 0..3 {
        for k in 0..6 {
            assert!(c.send(&format!("CHECK app {}", pair(k, "x"))).starts_with("OK holds=true"));
        }
    }
    let after: u64 = field(&shard_line(&mut c, dead_addr), "attempts").parse().unwrap();
    assert!(after - before <= 3, "Open breaker leaked traffic: {before} -> {after}");

    // Restart a shard on the same port (fresh engine, no schema — the
    // router re-pushes it on demand). The next half-open probe trial
    // succeeds and the breaker recloses.
    let revived = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpListener::bind(dead_addr) {
                Ok(l) => break l,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(50)),
                Err(e) => panic!("port {dead_addr} never freed: {e}"),
            }
        }
    };
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 256,
        ..EngineConfig::default()
    }));
    let revived_stop = Shutdown::new();
    let revived_handle = {
        let shutdown = revived_stop.clone();
        thread::spawn(move || {
            serve_with_shutdown(revived, engine, ServerConfig::default(), shutdown)
                .expect("serve revived shard");
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let line = shard_line(&mut c, dead_addr);
        if field(&line, "state") == "closed" {
            assert_eq!(field(&line, "up"), "true", "{line}");
            break;
        }
        assert!(Instant::now() < deadline, "breaker never reclosed: {line}");
        thread::sleep(Duration::from_millis(50));
    }

    // Serving resumes through the revived shard (schema healed on the fly).
    for k in 0..6 {
        assert!(c.send(&format!("CHECK app {}", pair(k, "y"))).starts_with("OK holds=true"));
    }

    // The full breaker cycle is visible in METRICS.
    let first = c.send("METRICS");
    let mut lines = c.read_until("# EOF");
    lines.insert(0, first);
    for transition in ["open", "half_open", "close"] {
        let series = format!(
            "router_breaker_transitions_total{{shard=\"{dead_addr}\",transition=\"{transition}\"}}"
        );
        let count = lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{series} ")))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("missing series {series}"));
        assert!(count >= 1, "{series} never incremented");
    }

    stop.trigger();
    handle.join().unwrap();
    revived_stop.trigger();
    revived_handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        let _ = h.join();
    }
}

#[test]
fn fleet_metrics_aggregate_and_stay_parseable() {
    let shards: Vec<_> = (0..2).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, _router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));
    for var in VARS {
        assert!(c.send(&format!("CHECK app {}", pair(0, var))).starts_with("OK"));
    }

    let first = c.send("METRICS");
    let mut lines = c.read_until("# EOF");
    lines.insert(0, first);

    // Shard families survive with both a fleet sum and per-shard labels.
    assert!(
        lines.iter().any(|l| l.starts_with("coqld_decisions_total ")),
        "fleet-summed counter missing: {lines:?}"
    );
    for addr in &addrs {
        let label = format!("{{shard=\"{addr}\"}}");
        assert!(
            lines.iter().any(|l| l.starts_with("coqld_decisions_total{") && l.contains(&label)),
            "per-shard sample for {addr} missing"
        );
    }
    // Router families are appended.
    let routed = lines
        .iter()
        .find_map(|l| l.strip_prefix("router_routed_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("router_routed_total present");
    assert_eq!(routed, VARS.len() as u64);
    assert!(lines.iter().any(|l| l.starts_with("router_shard_up{")), "{lines:?}");

    // The whole exposition still parses: every sample line is
    // `name{labels} value` with a valid metric name and numeric value.
    for l in lines.iter().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (series, value) = l.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample `{l}`"));
        let name = series.split('{').next().unwrap();
        assert!(co_trace::is_valid_metric_name(name), "bad name in `{l}`");
        assert!(value.parse::<f64>().is_ok(), "bad value in `{l}`");
    }

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

#[test]
fn handoff_ships_the_warm_cache_to_a_joining_shard() {
    let (seed_addr, seed_stop, seed_handle) = start_shard(true);
    let (router_addr, router, stop, handle) = start_router(&[seed_addr], test_config());
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));
    for k in 0..5 {
        assert!(c.send(&format!("CHECK app {}", pair(k, "x"))).starts_with("OK holds=true"));
    }

    let (joiner_addr, joiner_stop, joiner_handle) = start_shard(true);
    let reply = c.send(&format!("HANDOFF {joiner_addr}"));
    assert!(reply.starts_with("OK handoff "), "{reply}");
    assert!(reply.contains(&format!("shard={joiner_addr}")), "{reply}");
    assert!(reply.contains(&format!("donor={seed_addr}")), "{reply}");
    assert!(reply.contains("imported=5"), "{reply}");
    assert_eq!(router.shard_addrs().len(), 2, "the ring grew");

    // The joiner really holds the verdicts (and the schema).
    let mut j = Client::connect(joiner_addr);
    assert_eq!(j.stat("persist.recovered_entries"), 5);
    assert_eq!(j.stat("cache.entries"), 5);
    assert_eq!(j.stat("schemas"), 1);

    // Joining twice is refused.
    let reply = c.send(&format!("HANDOFF {joiner_addr}"));
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("already"), "{reply}");

    stop.trigger();
    handle.join().unwrap();
    for (s, h) in [(seed_stop, seed_handle), (joiner_stop, joiner_handle)] {
        s.trigger();
        h.join().unwrap();
    }
}

/// A `METRICS` reply with every sample value removed and each shard
/// address replaced by `SHARD<i>`, its position in `shards`.
fn without_values(lines: &[String], shards: &[SocketAddr]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let mut l = match l.starts_with('#') {
                true => l.clone(),
                false => l.rsplit_once(' ').unwrap_or_else(|| panic!("bad `{l}`")).0.to_string(),
            };
            for (i, addr) in shards.iter().enumerate() {
                l = l.replace(&addr.to_string(), &format!("SHARD{i}"));
            }
            l
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

/// `STATS` as `(key, value)` pairs in reply order.
fn stats_pairs(c: &mut Client) -> Vec<(String, String)> {
    let first = c.send("STATS");
    let mut lines = c.read_until("END");
    lines.insert(0, first);
    lines
        .iter()
        .map(|l| {
            let (k, v) = l.split_once(' ').unwrap_or_else(|| panic!("bad STATS line `{l}`"));
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn metrics_lines(c: &mut Client) -> Vec<String> {
    let first = c.send("METRICS");
    let mut lines = c.read_until("# EOF");
    lines.insert(0, first);
    lines
}

#[test]
fn fresh_router_matches_the_golden_stats_and_metrics() {
    let shards: Vec<_> = (0..2).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, _router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Client::connect(router_addr);

    let keys: Vec<String> = stats_pairs(&mut c).into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, golden_lines(include_str!("golden/router_stats_keys.txt")));
    assert_eq!(
        sorted_blocks(&without_values(&metrics_lines(&mut c), &addrs)),
        sorted_blocks(&golden_lines(include_str!("golden/router_metrics.txt")))
    );

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

#[test]
fn router_stats_and_metrics_agree_after_a_mixed_workload() {
    let shards: Vec<_> = (0..2).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, _router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));
    assert!(c.send(&format!("CHECK app {}", pair(1, "x"))).starts_with("OK"));
    assert!(c.send(&format!("CHECK app {}", pair(1, "y"))).starts_with("OK"));
    let equiv = "select [a: x.A] from x in R ;; select [a: y.A] from y in R";
    assert!(c.send(&format!("EQUIV app {equiv}")).starts_with("OK"));
    let union = "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2 \
                 ;; select y.B from y in R";
    assert!(c.send(&format!("UCHECK app {union}")).starts_with("OK"));
    assert!(c.send(&format!("CERT CHECK app {}", pair(2, "z"))).starts_with("OK"));
    c.read_until("END");
    let timeout = c.send("BUDGET 1 CHECK app select x.A from x in R ;; select y.A from y in R");
    assert!(timeout.starts_with("ERR DEADLINE"), "{timeout}");
    assert!(c
        .send("CHECK app select x.Z from x in R ;; select y.B from y in R")
        .starts_with("ERR"));

    let stats = stats_pairs(&mut c);
    let metrics = metrics_lines(&mut c);
    let stat = |key: &str| {
        let found = stats.iter().find(|(k, _)| k == key);
        found.unwrap_or_else(|| panic!("STATS has no `{key}`")).1.parse::<u64>().unwrap()
    };
    assert!(stat("router.routed") >= 6 && stat("router.local_errors") >= 1, "{stats:?}");
    for (key, family) in [
        ("router.routed", "router_routed_total"),
        ("router.shed", "router_shed_total"),
        ("router.retries", "router_retries_total"),
        ("router.redials", "router_redials_total"),
        ("router.decision_requests", "router_decision_requests_total"),
        ("router.hedges", "router_hedges_total"),
        ("router.hedge_wins", "router_hedge_wins_total"),
        ("router.hedges_capped", "router_hedges_capped_total"),
        ("router.shard_down_events", "router_shard_down_total"),
        ("router.handoffs", "router_handoffs_total"),
        ("router.probe_failures", "router_probe_failures_total"),
        ("router.local_errors", "router_local_errors_total"),
    ] {
        let sample = metrics.iter().find_map(|l| l.strip_prefix(family)?.strip_prefix(' '));
        let sample = sample.unwrap_or_else(|| panic!("METRICS has no `{family}`"));
        assert_eq!(sample.parse::<u64>().unwrap(), stat(key), "{key} vs {family}");
    }

    stop.trigger();
    handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Client-facing front end: the router enforces coqld's connection contract.
// ---------------------------------------------------------------------------

const EASY: &str = "CHECK app select x.B from x in R where x.A = 1 ;; select x.B from x in R";

/// One shard behind a router with `config`'s client-facing limits and a
/// short drain, so teardown never waits long on a test's leftovers.
fn front_end_fleet(config: RouterConfig) -> (SocketAddr, impl FnOnce()) {
    let (shard_addr, shard_stop, shard_handle) = start_shard(false);
    let config = RouterConfig { drain_timeout: Duration::from_millis(500), ..config };
    let (router_addr, _router, stop, handle) = start_router(&[shard_addr], config);
    let teardown = move || {
        stop.trigger();
        handle.join().unwrap();
        shard_stop.trigger();
        shard_handle.join().unwrap();
    };
    (router_addr, teardown)
}

#[test]
fn router_cuts_off_a_slow_loris_at_the_line_deadline() {
    let config = RouterConfig { read_timeout: Some(Duration::from_millis(300)), ..test_config() };
    let (router_addr, teardown) = front_end_fleet(config);
    let mut loris = TcpStream::connect(router_addr).unwrap();
    // The loris dribbles one byte, then waits up to 50 ms for the router
    // to hang up, and repeats for as long as it is let: every socket
    // read on the router's side succeeds, so only the absolute per-line
    // deadline can cut it off.
    loris.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    let cut_off = loop {
        if start.elapsed() > Duration::from_secs(5) {
            break false;
        }
        if loris.write_all(b"x").is_err() {
            break true;
        }
        match loris.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break true, // reset by the closing router
        }
    };
    assert!(
        cut_off && start.elapsed() < Duration::from_secs(3),
        "loris survived {:?}, expected a cutoff near 300ms",
        start.elapsed()
    );
    // A well-behaved client is unaffected.
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));
    assert!(c.send(EASY).starts_with("OK holds=true"));
    drop(c);
    drop(loris);
    teardown();
}

#[test]
fn router_rejects_an_oversized_line_and_the_connection_survives() {
    let (router_addr, teardown) =
        front_end_fleet(RouterConfig { max_line_bytes: 256, ..test_config() });
    let mut c = Client::connect(router_addr);
    assert!(c.send(SCHEMA).starts_with("OK"));
    let huge = format!("CHECK app {} ;; {}", "x".repeat(4096), "y".repeat(4096));
    assert_eq!(c.send(&huge), "ERR TOOLARGE line exceeds 256 bytes");
    // The oversized line was discarded up to its newline; the next
    // request on the same connection parses cleanly.
    let reply = c.send(EASY);
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(c);
    teardown();
}

#[test]
fn router_sheds_the_connection_past_max_connections() {
    let (router_addr, teardown) =
        front_end_fleet(RouterConfig { max_connections: 1, ..test_config() });
    let mut first = Client::connect(router_addr);
    // A served request proves the first connection holds the only slot.
    assert!(first.send(SCHEMA).starts_with("OK"));
    let mut second = Client::connect(router_addr);
    let mut reply = String::new();
    second.reader.read_line(&mut reply).expect("read shed reply");
    assert_eq!(reply, "ERR OVERLOADED connection limit reached, retry later\n");
    // The shed socket is closed after the reply.
    let mut rest = String::new();
    assert_eq!(second.reader.read_to_string(&mut rest).unwrap(), 0);
    // Releasing the slot lets the next client in.
    assert_eq!(first.send("QUIT"), "OK bye");
    drop(first);
    let give_up = Instant::now() + Duration::from_secs(5);
    let reply = loop {
        // The slot frees when the handler thread exits; retry briefly.
        // A shed socket may already be closed when we write (broken
        // pipe) — that counts as "still overloaded", not a failure.
        assert!(Instant::now() < give_up, "connection slot never freed");
        let stream = TcpStream::connect(router_addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let wrote = writeln!(writer, "{EASY}").is_ok();
        let mut line = String::new();
        let read = wrote && reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false);
        if !read || line.starts_with("ERR OVERLOADED") {
            thread::sleep(Duration::from_millis(10));
            continue;
        }
        break line.trim_end().to_string();
    };
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    teardown();
}
