//! The threads a run starts: its workers and the network thread, nothing
//! else. Its own test binary, so the run below is the only one in the
//! process while a handler lists the process's threads.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crusader_crypto::NodeId;
use crusader_runtime::{run, RuntimeConfig};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::Dur;

const WORKERS: usize = 3;

/// Lists the names of the process's threads 100 ms into the run, once
/// every thread of it has started and named itself.
struct Census(Arc<Mutex<Vec<String>>>);

impl Automaton for Census {
    type Msg = ();

    fn on_init(&mut self, ctx: &mut dyn Context<()>) {
        ctx.set_timer_at(ctx.local_time() + Dur::from_millis(100.0));
    }

    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {}

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<()>) {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
        let names = tasks.filter_map(|task| comm(task.ok()?).ok());
        *self.0.lock().unwrap() = names.map(|name| name.trim_end().to_owned()).collect();
    }
}

#[test]
fn a_run_is_its_workers_and_the_network_thread() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let cfg = RuntimeConfig {
        run_for: Duration::from_millis(400),
        workers: Some(WORKERS),
        ..RuntimeConfig::new(1)
    };
    run(&cfg, |_| Census(Arc::clone(&seen)));
    // The kernel keeps 15 bytes of a thread's name, so every worker reads
    // as `crusader-worker`.
    let mut ours: Vec<String> = seen.lock().unwrap().clone();
    ours.retain(|name| name.starts_with("crusader-"));
    ours.sort();
    let expected = [vec!["crusader-net"], vec!["crusader-worker"; WORKERS]].concat();
    assert_eq!(ours, expected, "{:?}", seen.lock().unwrap());
}
