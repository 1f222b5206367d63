//! The daemon's thread budget: a request runs on the shard worker that
//! pops it, so the daemon holds `1 + shards × workers + 2 × connections`
//! threads (accept, shard workers, a reader and a writer per connection)
//! however wide the requests' `jobs` hints are — and the hint never
//! changes a reply.

mod common;

use std::sync::Mutex;

use common::{start_sharded, TestConn};
use mdes_machines::Machine;
use mdes_serve::ServeConfig;

/// Both tests boot a daemon in this process; one at a time, so the
/// thread census only ever sees one daemon.
static ONE_DAEMON: Mutex<()> = Mutex::new(());

/// Threads of this process named as daemon threads (`serve-*`).  A
/// thread spawned without a name inherits its parent's, so threads a
/// daemon thread starts are counted too.
fn daemon_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.starts_with("serve-"))
        })
        .count()
}

/// A pipelined `schedule` line routed to `machine`.
fn line(id: u64, machine: &str, jobs: usize) -> String {
    format!(
        "{{\"id\": {id}, \"verb\": \"schedule\", \"regions\": 48, \"mean_ops\": 16, \
         \"seed\": {id}, \"jobs\": {jobs}, \"machine\": \"{machine}\"}}"
    )
}

#[test]
fn thread_count_stays_constant_while_wide_requests_are_in_flight() {
    let _one = ONE_DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 2;
    const CONNECTIONS: usize = 2;
    const PER_CONNECTION: u64 = 48;
    let machines = [Machine::K5, Machine::Pentium];
    assert_eq!(daemon_threads(), 0, "a daemon is already running");

    let config = ServeConfig {
        workers: WORKERS,
        queue_capacity: 4 * PER_CONNECTION as usize,
        ..ServeConfig::default()
    };
    let (handle, addr) = start_sharded(&machines, "threads", config);
    let budget = 1 + machines.len() * WORKERS + 2 * CONNECTIONS;

    let mut conns: Vec<TestConn> = (0..CONNECTIONS).map(|_| TestConn::open(&addr)).collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        for n in 0..PER_CONNECTION {
            let id = c as u64 * PER_CONNECTION + n;
            let machine = machines[n as usize % machines.len()].name();
            conn.send_line(&line(id, machine, if n % 2 == 0 { 8 } else { 64 }));
        }
    }
    // Census before every reply read: the shard queues stay busy until
    // the last reply, so each sample lands while work is in flight.
    let mut peak = 0;
    for conn in &mut conns {
        for _ in 0..PER_CONNECTION {
            peak = peak.max(daemon_threads());
            let reply = conn.read_reply().expect("reply");
            assert!(reply.ok, "{}", reply.body.render());
        }
    }
    assert_eq!(
        peak, budget,
        "daemon threads peaked at {peak}; budget is {budget}"
    );

    drop(conns);
    handle.shutdown();
    handle.join();
    assert_eq!(daemon_threads(), 0, "every daemon thread is joined");
}

#[test]
fn jobs_is_a_hint_that_never_changes_a_reply() {
    let _one = ONE_DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let machines = [Machine::K5, Machine::Pentium];
    let (handle, addr) = start_sharded(&machines, "jobs-hint", ServeConfig::default());
    let mut conn = TestConn::open(&addr);

    for verb in ["schedule", "verify"] {
        for machine in machines {
            let request = |id: Option<u64>, jobs: usize| {
                let id = id.map_or(String::new(), |id| format!("\"id\": {id}, "));
                format!(
                    "{{{id}\"verb\": \"{verb}\", \"regions\": 32, \"mean_ops\": 12, \
                     \"seed\": 5, \"jobs\": {jobs}, \"machine\": \"{}\"}}\n",
                    machine.name()
                )
            };
            // Pipelined: the replies differ only in the echoed id.
            conn.send_raw(request(Some(1001), 1).as_bytes());
            let narrow = conn.read_line().expect("reply");
            conn.send_raw(request(Some(6464), 64).as_bytes());
            let wide = conn.read_line().expect("reply");
            assert!(narrow.contains("\"ok\":true"), "{narrow}");
            assert_eq!(
                narrow.replacen("1001", "ID", 1),
                wide.replacen("6464", "ID", 1),
                "{verb} on {machine:?}"
            );
            // Serial (id-less, v1): byte-identical outright.
            conn.send_raw(request(None, 1).as_bytes());
            let narrow = conn.read_line().expect("reply");
            conn.send_raw(request(None, 64).as_bytes());
            let wide = conn.read_line().expect("reply");
            assert_eq!(narrow, wide, "v1 {verb} on {machine:?}");
        }
    }

    drop(conn);
    handle.shutdown();
    handle.join();
}
