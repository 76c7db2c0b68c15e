//! Fixture: ad-hoc threading outside `simkit::sweep` (D4).
//! Expected: D4 on the `mpsc::channel` line (10) and the
//! `thread::spawn` line (11). Parallelism belongs in the sweep
//! executor, where results return in index order.

use std::sync::mpsc;
use std::thread;

pub fn fan_out() -> u64 {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        tx.send(1u64).unwrap();
    });
    h.join().unwrap();
    rx.recv().unwrap()
}
