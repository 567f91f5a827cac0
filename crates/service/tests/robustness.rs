//! Robustness of the serving path against hostile or unlucky clients:
//! protocol garbage, oversized lines, overload, mid-request disconnects,
//! slow-loris dribbling, expired deadlines, and drain shutdown — all
//! against a real TCP server on an ephemeral port.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use co_service::{
    serve_with_shutdown, Decision, Engine, EngineConfig, Op, Request, RequestBudget, ServerConfig,
    Shutdown,
};

struct TestServer {
    addr: SocketAddr,
    shutdown: Shutdown,
    handle: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Engine::new(EngineConfig {
            cache_shards: 4,
            cache_per_shard: 64,
            ..EngineConfig::default()
        }));
        let shutdown = Shutdown::new();
        let handle = {
            let shutdown = shutdown.clone();
            thread::spawn(move || serve_with_shutdown(listener, engine, config, shutdown))
        };
        TestServer { addr, shutdown, handle }
    }

    /// Triggers shutdown and asserts the serve loop drains and exits Ok.
    fn stop(self) {
        self.shutdown.trigger();
        let result = self.handle.join().expect("serve thread must not panic");
        assert!(result.is_ok(), "serve must exit cleanly on drain: {result:?}");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    }
}

const EASY: &str = "CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R";

/// Default test config with a short drain so `stop()` never waits long
/// for a connection the test forgot to close.
fn test_config() -> ServerConfig {
    ServerConfig { drain_timeout: Duration::from_millis(500), ..ServerConfig::default() }
}

/// A query whose self-containment forces the Full decision path through
/// 2^k possibly-empty-set patterns — far beyond any test deadline, yet
/// cancellable within a millisecond by the cooperative kernel budget.
fn hard_query(k: usize) -> String {
    let subs: Vec<String> = (0..k)
        .map(|i| format!("g{i}: (select y{i}.C from y{i} in S where y{i}.C = x.A)"))
        .collect();
    format!("select [{}] from x in R", subs.join(", "))
}

#[test]
fn protocol_garbage_leaves_server_healthy() {
    let server = TestServer::start(test_config());
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    for bad in [
        "SCHEMA s2 R(",
        "SCHEMA s2 R(A, A)",
        "SCHEMA s2",
        "CHECK s onlyhalf",
        "CHECK s ;; ",
        "CHECK nosuchschema {1} ;; {1}",
        "EQUIV s select from where ;; select from where",
        "FROBNICATE all the things",
        "TIMEOUT banana CHECK s {1} ;; {1}",
    ] {
        let reply = client.send(bad);
        assert!(reply.starts_with("ERR "), "`{bad}` → {reply}");
    }
    // The same connection still serves real work afterwards.
    let reply = client.send(EASY);
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);
    server.stop();
}

#[test]
fn oversized_line_is_rejected_and_connection_survives() {
    let config = ServerConfig { max_line_bytes: 256, ..test_config() };
    let server = TestServer::start(config);
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    let huge = format!("CHECK s {} ;; {}", "x".repeat(4096), "y".repeat(4096));
    let reply = client.send(&huge);
    assert!(reply.starts_with("ERR TOOLARGE"), "{reply}");
    // The oversized line was discarded up to its newline; the next
    // request on the same connection parses cleanly.
    let reply = client.send(EASY);
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);
    server.stop();
}

#[test]
fn excess_connections_are_shed_with_overloaded() {
    let config = ServerConfig { max_connections: 1, ..test_config() };
    let server = TestServer::start(config);
    let mut first = Client::connect(server.addr);
    // A served request proves the first connection holds the only slot.
    assert!(first.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    let mut second = Client::connect(server.addr);
    let reply = second.read_line();
    assert!(reply.starts_with("ERR OVERLOADED"), "{reply}");
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
        let stream = TcpStream::connect(server.addr).expect("connect");
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
    server.stop();
}

#[test]
fn mid_request_disconnect_is_harmless() {
    let server = TestServer::start(test_config());
    {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        // Half a request line, no newline, then a hard disconnect.
        stream.write_all(b"CHECK s select x.B from x in").unwrap();
    }
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    assert!(client.send(EASY).starts_with("OK holds=true"));
    drop(client);
    server.stop();
}

#[test]
fn slow_loris_is_cut_off_by_the_line_deadline() {
    let config = ServerConfig { read_timeout: Some(Duration::from_millis(300)), ..test_config() };
    let server = TestServer::start(config);
    let mut loris = TcpStream::connect(server.addr).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    // Dribble bytes often enough that each read() succeeds: only the
    // absolute per-line deadline can cut this client off.
    let mut dropped = false;
    for _ in 0..40 {
        if loris.write_all(b"x").is_err() {
            dropped = true;
            break;
        }
        thread::sleep(Duration::from_millis(50));
    }
    if !dropped {
        // Writes can buffer in the kernel; the definitive signal is EOF.
        let mut buf = [0u8; 16];
        loop {
            match loris.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("expected EOF from dropped loris, got {e}"),
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "loris survived {:?}, expected a cutoff near 300ms",
        start.elapsed()
    );
    // A well-behaved client is unaffected.
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    assert!(client.send(EASY).starts_with("OK holds=true"));
    drop(client);
    drop(loris);
    server.stop();
}

#[test]
fn step_budget_exhaustion_times_out_without_caching() {
    let engine = Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 32,
        ..EngineConfig::default()
    });
    engine
        .register_schema("s", co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    let q1 = "select x.B from x in R where x.A = 1";
    let q2 = "select x.B from x in R";
    let starved = Request::new(Op::Check, "s", q1, q2).with_budget(RequestBudget::with_steps(1));
    let start = Instant::now();
    let Decision::TimedOut { elapsed, .. } = engine.decide(&starved).unwrap() else {
        panic!("1-step budget must exhaust before a verdict");
    };
    assert!(start.elapsed() < Duration::from_secs(1), "starved decide took {elapsed:?}");
    assert_eq!(engine.stats().timeouts.load(Ordering::Relaxed), 1);
    assert_eq!(engine.cache_stats().entries, 0, "timeouts must never be memoized");
    // An unlimited retry computes the true verdict from scratch.
    let retry = Request::new(Op::Check, "s", q1, q2);
    let Decision::Containment { analysis, cached, .. } = engine.decide(&retry).unwrap() else {
        panic!("expected containment decision");
    };
    assert!(analysis.holds);
    assert!(!cached, "nothing may have been cached by the starved attempt");
}

#[test]
fn hard_instance_deadline_is_not_memoized() {
    let server = TestServer::start(test_config());
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    let hard = hard_query(18);
    let line = format!("TIMEOUT 60 CHECK s {hard} ;; {hard}");
    let start = Instant::now();
    let reply = client.send(&line);
    assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "deadline reply took {:?}, cancellation is not cooperative enough",
        start.elapsed()
    );
    // Asking again must recompute (and time out again), not serve a
    // poisoned cache entry — a cached timeout would answer instantly
    // with OK or a stale ERR.
    let reply = client.send(&line);
    assert!(reply.starts_with("ERR DEADLINE"), "second attempt: {reply}");
    // The engine is unharmed for everyone else.
    assert!(client.send(EASY).starts_with("OK holds=true"));
    drop(client);
    server.stop();
}

#[test]
fn hostile_nesting_answers_toodeep_and_server_survives() {
    // A 100k-deep query is ~100 KB of `{`, past the default line cap, so
    // raise the cap: this test must reach the parser, not TOOLARGE.
    let config = ServerConfig { max_line_bytes: 1 << 20, ..test_config() };
    let server = TestServer::start(config);
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    let bomb = "{".repeat(100_000);
    let reply = client.send(&format!("CHECK s {bomb} ;; select x.B from x in R"));
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
    // The cap must also guard the container side and FINGERPRINT.
    let reply = client.send(&format!("CHECK s select x.B from x in R ;; {bomb}"));
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
    let reply = client.send(&format!("FINGERPRINT s {bomb}"));
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
    // Same connection, same server: real work still flows.
    let reply = client.send(EASY);
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);
    server.stop();
}

#[test]
fn shutdown_verb_drains_and_exits_cleanly() {
    let config = ServerConfig { allow_shutdown: true, ..test_config() };
    let server = TestServer::start(config);
    let mut client = Client::connect(server.addr);
    assert!(client.send("SCHEMA s R(A,B); S(C)").starts_with("OK"));
    assert!(client.send(EASY).starts_with("OK holds=true"));
    assert_eq!(client.send("SHUTDOWN"), "OK draining");
    // stop() would also trigger; here the verb already did, so joining
    // directly proves the verb alone drains the server.
    let result = server.handle.join().expect("serve thread must not panic");
    assert!(result.is_ok(), "{result:?}");
}

#[test]
fn parallel_kernels_respect_budgets_and_join_workers() {
    // Multi-threaded kernels must still honor deadlines and step budgets:
    // the budget is sliced across workers through a shared pool, expiry
    // cancels the whole request, and the scoped pool joins every worker
    // before the kernel returns — no detached threads can outlive the
    // decision.
    let engine = Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 32,
        kernel_threads: 4,
        ..EngineConfig::default()
    });
    engine
        .register_schema("s", co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    let hard = hard_query(18);

    // Wall-clock deadline on a 2^18-pattern instance.
    let timed = Request::new(Op::Check, "s", &hard, &hard)
        .with_budget(RequestBudget::with_timeout(Duration::from_millis(60)));
    let start = Instant::now();
    let Decision::TimedOut { .. } = engine.decide(&timed).unwrap() else {
        panic!("hard instance under a 60ms deadline must time out");
    };
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "deadline took {:?} to propagate across kernel workers",
        start.elapsed()
    );

    // Step budget: the shared pool drains and every worker stops.
    let starved =
        Request::new(Op::Check, "s", &hard, &hard).with_budget(RequestBudget::with_steps(5_000));
    let Decision::TimedOut { .. } = engine.decide(&starved).unwrap() else {
        panic!("5000-step budget must exhaust on a 2^18-pattern instance");
    };
    assert_eq!(engine.stats().timeouts.load(Ordering::Relaxed), 2);
    assert_eq!(engine.cache_stats().entries, 0, "timeouts must never be memoized");

    // The engine is healthy afterwards: an easy request decides normally
    // and the interrupted state did not leak into this thread.
    let easy = Request::new(
        Op::Check,
        "s",
        "select x.B from x in R where x.A = 1",
        "select x.B from x in R",
    );
    let Decision::Containment { analysis, .. } = engine.decide(&easy).unwrap() else {
        panic!("expected containment decision");
    };
    assert!(analysis.holds);
}
