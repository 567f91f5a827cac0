//! Starting and stopping the real `coqld` shards and `coqld-router` on
//! loopback ephemeral ports.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::raw::c_int;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::wire::Conn;
use crate::workload::{Workload, SCHEMA_DECL, SCHEMA_NAME};

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: std::os::raw::c_ulong = 9;

/// One running server process.
pub struct Server {
    pub pid: u32,
    pub addr: SocketAddr,
    pub is_router: bool,
    child: Child,
    // Held open so the server's later log lines never hit a closed pipe.
    stdout: BufReader<ChildStdout>,
}

/// Killed and reaped when dropped, on every exit path including a panic.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The servers of one workload.
pub struct Fleet {
    pub servers: Vec<Server>,
    /// Where clients connect: the router if there is one, else the shard.
    pub entry: SocketAddr,
}

impl Fleet {
    pub fn shards(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter().filter(|s| !s.is_router)
    }
}

/// Spawns `bin` with `args`, waits for its `listening on <addr>` line.
/// The child gets `SIGKILL` if this process dies first, so no server
/// outlives the benchmark even when the benchmark itself is killed.
fn spawn(bin: &Path, args: &[String], is_router: bool) -> Result<Server, String> {
    let mut cmd = Command::new(bin);
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    // SAFETY: the hook runs in the forked child before exec and only makes
    // the async-signal-safe prctl(2) system call with integer arguments.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
    let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let pid = child.id();
    let mut server = Server {
        pid,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        is_router,
        child,
        stdout: BufReader::new(stdout),
    };
    loop {
        let mut line = String::new();
        if server.stdout.read_line(&mut line).unwrap_or(0) == 0 {
            return Err(format!("{} exited before listening", bin.display()));
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or("");
            server.addr = addr.parse().map_err(|_| format!("bad listen address `{addr}`"))?;
            return Ok(server);
        }
    }
}

/// Starts the workload's shards (and router), then registers the schema
/// through the `SCHEMA` verb at the entry point. `coqld-router --schema`
/// with a multi-line schema file is not used: it pushes the declaration
/// with its embedded newline and shards register only the first relation.
pub fn launch(bin_dir: &Path, w: &Workload) -> Result<Fleet, String> {
    let mut servers = Vec::new();
    let listen = || ["--listen".to_string(), "127.0.0.1:0".to_string()];
    for _ in 0..w.shards {
        let mut args = listen().to_vec();
        args.extend(["--kernel-threads".to_string(), "1".to_string()]);
        args.extend(w.shard_args.iter().cloned());
        servers.push(spawn(&bin_dir.join("coqld"), &args, false)?);
    }
    let mut fleet = Fleet { entry: servers[0].addr, servers };
    if w.router {
        let mut args = listen().to_vec();
        for s in fleet.shards() {
            args.extend(["--shard".to_string(), s.addr.to_string()]);
        }
        let router = spawn(&bin_dir.join("coqld-router"), &args, true)?;
        fleet.entry = router.addr;
        fleet.servers.push(router);
    }
    let mut conn = Conn::connect(fleet.entry).map_err(|e| format!("connect: {e}"))?;
    let (reply, _) = conn
        .call(&format!("SCHEMA {SCHEMA_NAME} {SCHEMA_DECL}"), false)
        .map_err(|e| format!("SCHEMA: {e}"))?;
    if !reply.starts_with("OK") {
        return Err(format!("SCHEMA rejected: {reply}"));
    }
    Ok(fleet)
}

/// Sends `STATS` to one server and parses the body.
pub fn stats(addr: SocketAddr) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("STATS connect: {e}"))?;
    let (reply, _) = conn.call("STATS", true).map_err(|e| format!("STATS: {e}"))?;
    Ok(crate::wire::parse_stats(&reply))
}
