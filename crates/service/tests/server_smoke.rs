//! End-to-end smoke test: a real `coqld` serving loop on an ephemeral TCP
//! port, exercised over a socket exactly as `nc` would.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_service::{serve, Engine, EngineConfig, ServerConfig};

fn start_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 64,
        ..EngineConfig::default()
    }));
    thread::spawn(move || {
        let _ =
            serve(listener, engine, ServerConfig { max_connections: 8, ..ServerConfig::default() });
    });
    addr
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to coqld");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    }

    /// Sends a STATS request and reads the multi-line reply up to END.
    fn stats(&mut self) -> Vec<String> {
        writeln!(self.writer, "STATS").unwrap();
        self.writer.flush().unwrap();
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read stats line");
            let line = line.trim_end().to_string();
            let done = line == "END";
            lines.push(line);
            if done {
                return lines;
            }
        }
    }
}

#[test]
fn serves_check_equiv_stats_over_tcp() {
    let addr = start_server();
    let mut client = Client::connect(addr);

    let reply = client.send("SCHEMA app R(A, B); S(C)");
    assert!(reply.starts_with("OK"), "SCHEMA reply: {reply}");

    let reply =
        client.send("CHECK app select x.B from x in R where x.A = 1 ;; select y.B from y in R");
    assert!(reply.starts_with("OK holds=true"), "CHECK reply: {reply}");
    assert!(reply.contains("cached=false"), "CHECK reply: {reply}");

    // The α-renamed duplicate is answered from cache.
    let reply =
        client.send("CHECK app select u.B from u in R where 1 = u.A ;; select v.B from v in R");
    assert!(reply.starts_with("OK holds=true"), "CHECK reply: {reply}");
    assert!(reply.contains("cached=true"), "CHECK reply: {reply}");

    let reply = client.send("EQUIV app select [a: x.A] from x in R ;; select y.C from y in S");
    assert!(reply.starts_with("ERR"), "type-mismatched EQUIV reply: {reply}");

    let stats = client.stats();
    assert_eq!(stats.last().map(String::as_str), Some("END"));
    assert!(stats.iter().any(|l| l.starts_with("decisions ")), "{stats:?}");
    assert!(stats.iter().any(|l| l == "cache.hits 1"), "{stats:?}");

    let reply = client.send("NOPE what");
    assert!(reply.starts_with("ERR"), "unknown command reply: {reply}");
}

#[test]
fn concurrent_clients_share_the_cache() {
    let addr = start_server();
    let mut setup = Client::connect(addr);
    assert!(setup.send("SCHEMA app R(A, B)").starts_with("OK"));

    let replies: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let vars = ["x", "y", "z", "w"];
                    let v = vars[i];
                    client.send(&format!(
                        "CHECK app select {v}.B from {v} in R where {v}.A = 7 ;; \
                         select {v}.B from {v} in R"
                    ))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for reply in &replies {
        assert!(reply.starts_with("OK holds=true"), "concurrent CHECK reply: {reply}");
    }
    let stats = setup.stats();
    let computed = stats
        .iter()
        .find_map(|l| l.strip_prefix("computed "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("computed in STATS");
    assert_eq!(computed, 1, "all four α-variants share one cache key: {stats:?}");
}
