//! End-to-end protocol tests for the PR-10 verbs: `UCHECK`/`UEQUIV`
//! (union containment with certificates) and `AGG`/`NEST` (aggregate and
//! nest/unnest decisions), all over a real TCP serving loop.

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

    /// Sends a request whose reply is multi-line, reading up to `END`
    /// (or a single `ERR` line).
    fn send_multi(&mut self, line: &str) -> Vec<String> {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            self.reader.read_line(&mut reply).expect("read reply line");
            let reply = reply.trim_end().to_string();
            let done = reply == "END"
                || reply == "# EOF"
                || (lines.is_empty() && reply.starts_with("ERR"));
            lines.push(reply);
            if done {
                return lines;
            }
        }
    }
}

#[test]
fn ucheck_and_uequiv_decide_unions_over_tcp() {
    let addr = start_server();
    let mut client = Client::connect(addr);
    assert!(client.send("SCHEMA app R(A, B); S(C)").starts_with("OK"));

    // Both disjuncts of the left union are contained in the right query.
    let reply = client.send(
        "UCHECK app select x.B from x in R where x.A = 1 or \
         select x.B from x in R where x.A = 2 ;; select y.B from y in R",
    );
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    assert!(reply.contains("witnesses=0,0"), "{reply}");
    assert!(reply.contains("left=2 right=1"), "{reply}");
    assert!(reply.contains("cached=false"), "{reply}");

    // The permuted, α-renamed union shares the order-invariant
    // fingerprint: answered from the union memo.
    let reply = client.send(
        "UCHECK app select w.B from w in R where w.A = 2 or \
         select z.B from z in R where 1 = z.A ;; select v.B from v in R",
    );
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    assert!(reply.contains("cached=true"), "{reply}");

    // The reverse direction is refuted at the uncovered disjunct.
    let reply = client.send(
        "UCHECK app select y.B from y in R ;; \
         select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
    );
    assert!(reply.starts_with("OK holds=false"), "{reply}");
    assert!(reply.contains("refuted=0"), "{reply}");

    // `(σ R) ∪ R ≡ R` both ways.
    let reply = client.send(
        "UEQUIV app select x.B from x in R where x.A = 1 or select x.B from x in R ;; \
         select y.B from y in R",
    );
    assert!(reply.starts_with("OK equivalent=true"), "{reply}");
    assert!(reply.contains("forward=true backward=true"), "{reply}");

    let stats = client.send_multi("STATS");
    assert!(stats.iter().any(|l| l.starts_with("unions.decisions ")), "{stats:?}");
    assert!(stats.iter().any(|l| l == "unions.hits 1"), "{stats:?}");

    let metrics = client.send_multi("METRICS");
    assert!(metrics.iter().any(|l| l.starts_with("coqld_union_decisions_total ")), "{metrics:?}");
}

#[test]
fn cert_ucheck_attaches_checkable_union_certificates() {
    let addr = start_server();
    let mut client = Client::connect(addr);
    assert!(client.send("SCHEMA app R(A, B); S(C)").starts_with("OK"));

    let request = "CERT UCHECK app select x.B from x in R where x.A = 1 or \
                   select x.B from x in R where x.A = 2 ;; select y.B from y in R";
    let reply = client.send_multi(request);
    assert!(reply[0].starts_with("OK holds=true"), "{reply:?}");
    assert_eq!(reply.last().map(String::as_str), Some("END"));
    let body = reply[1..reply.len() - 1].join("\n");
    let cert = co_cert::UnionCert::parse(&body).expect("parse COUNION1 block");
    assert!(cert.holds);
    assert_eq!(cert.left, 2);
    assert_eq!(cert.witnesses.len(), 2);

    // A refuted union carries per-branch counterexample blocks.
    let reply = client.send_multi(
        "CERT UCHECK app select y.B from y in R ;; \
         select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
    );
    assert!(reply[0].starts_with("OK holds=false"), "{reply:?}");
    let body = reply[1..reply.len() - 1].join("\n");
    let cert = co_cert::UnionCert::parse(&body).expect("parse refuted COUNION1 block");
    assert!(!cert.holds);
    assert_eq!(cert.branches.len(), 2);

    // The memoized certificate passes the server-side re-check and is
    // served again on the cached path.
    let reply = client.send_multi(request);
    assert!(reply[0].contains("cached=true"), "{reply:?}");
    assert!(reply.iter().any(|l| l == "COUNION1 verdict=holds left=2 right=1"), "{reply:?}");
    let stats = client.send_multi("STATS");
    assert!(stats.iter().any(|l| l == "persist.cert_rejected 0"), "{stats:?}");

    // CERT UEQUIV emits the forward block, then the backward block.
    let reply = client.send_multi(
        "CERT UEQUIV app select x.B from x in R where x.A = 1 or select x.B from x in R ;; \
         select y.B from y in R",
    );
    assert!(reply[0].starts_with("OK equivalent=true"), "{reply:?}");
    let body = reply[1..reply.len() - 1].join("\n");
    let (fwd, rest) = co_cert::UnionCert::parse_prefix(&body).expect("forward block");
    let (bwd, rest) = co_cert::UnionCert::parse_prefix(rest).expect("backward block");
    assert!(rest.trim().is_empty(), "{rest}");
    assert!(fwd.holds && bwd.holds);
}

#[test]
fn union_budget_and_depth_failures_are_structured() {
    let addr = start_server();
    let mut client = Client::connect(addr);
    assert!(client.send("SCHEMA app R(A, B)").starts_with("OK"));

    // A 1-step budget trips inside the disjunct kernels: ERR DEADLINE,
    // nothing memoized — the retry computes fresh.
    let union = "select x.B from x in R where x.A = 1 or select x.B from x in R ;; \
                 select y.B from y in R";
    let reply = client.send(&format!("BUDGET 1 UCHECK app {union}"));
    assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
    let reply = client.send(&format!("UCHECK app {union}"));
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    assert!(reply.contains("cached=false"), "{reply}");

    // Hostile nesting inside a disjunct is a structured TOODEEP error.
    let hostile = format!("select x.B from x in R or {}", "{".repeat(10_000));
    let reply = client.send(&format!("UCHECK app {hostile} ;; select y.B from y in R"));
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");

    // Too many disjuncts is a syntax error, not a hang.
    let many = vec!["select x.B from x in R"; 65].join(" or ");
    let reply = client.send(&format!("UCHECK app {many} ;; select y.B from y in R"));
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("disjuncts"), "{reply}");
}

#[test]
fn agg_decides_aggregate_containment_over_tcp() {
    let addr = start_server();
    let mut client = Client::connect(addr);

    // α-renamed count queries are equivalent.
    let reply = client.send("AGG q(X) :- R(X, Y). | count(Y) ;; q(X) :- R(X, Z). | count(Z)");
    assert!(reply.starts_with("OK forward=true backward=true equivalent=true"), "{reply}");

    // A restricted body loses backward containment.
    let reply = client.send("AGG q(X) :- R(X, Y), S(X). | count(Y) ;; q(X) :- R(X, Y). | count(Y)");
    assert!(reply.starts_with("OK"), "{reply}");
    assert!(reply.contains("equivalent=false"), "{reply}");

    // Different aggregate functions never match.
    let reply = client.send("AGG q(X) :- R(X, Y). | count(Y) ;; q(X) :- R(X, Y). | sum(Y)");
    assert!(reply.contains("equivalent=false"), "{reply}");

    // Malformed requests answer a single ERR line.
    for bad in ["AGG", "AGG only one side", "AGG q(X :- R. ;; q(X) :- R(X)."] {
        let reply = client.send(bad);
        assert!(reply.starts_with("ERR"), "`{bad}` → {reply}");
    }

    // An oversized body is a structured TOODEEP error, not a worker hog.
    let atoms: Vec<String> = (0..65).map(|i| format!("R(X, Y{i})")).collect();
    let big =
        format!("AGG q(X) :- {}. | count(Y0) ;; q(X) :- R(X, Y). | count(Y)", atoms.join(", "));
    let reply = client.send(&big);
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
}

#[test]
fn nest_decides_sequence_equivalence_over_tcp() {
    let addr = start_server();
    let mut client = Client::connect(addr);
    assert!(client.send("SCHEMA app R(A, B)").starts_with("OK"));

    // unnest ∘ nest is the identity: ν then μ restores the base relation.
    let reply = client.send("NEST app R ; nest B as G ; unnest G ;; R");
    assert!(reply.starts_with("OK equivalent=true"), "{reply}");
    assert!(reply.contains("ops1=2 ops2=0"), "{reply}");

    // A bare nest changes the type: not equivalent to the base.
    let reply = client.send("NEST app R ; nest B as G ;; R");
    assert!(reply.starts_with("OK equivalent=false"), "{reply}");

    // Unknown schemas and malformed steps answer single ERR lines.
    let reply = client.send("NEST nope R ;; R");
    assert!(reply.starts_with("ERR"), "{reply}");
    for bad in
        ["NEST app", "NEST app R ;; ", "NEST app R ; pivot B ;; R", "NEST app R ; nest as G ;; R"]
    {
        let reply = client.send(bad);
        assert!(reply.starts_with("ERR"), "`{bad}` → {reply}");
        assert!(!reply.contains('\n'), "`{bad}` reply must be one line");
    }

    // An overlong sequence is a structured TOODEEP error.
    let mut steps = String::from("R");
    for i in 0..33 {
        steps.push_str(&format!(" ; nest B as G{i} ; unnest G{i}"));
    }
    let reply = client.send(&format!("NEST app {steps} ;; R"));
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");

    // EXPLAIN/CERT do not apply to the structural verbs.
    let reply = client.send("EXPLAIN NEST app R ;; R");
    assert!(reply.starts_with("ERR EXPLAIN"), "{reply}");
    let reply = client.send("CERT AGG q(X) :- R(X, Y). ;; q(X) :- R(X, Y).");
    assert!(reply.starts_with("ERR CERT"), "{reply}");
}
