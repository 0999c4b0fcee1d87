//! The one test of its process, so that the process's thread count is
//! the harness's two plus what [`par_indexed`] leaves behind — nothing:
//! every dispatch joins the helper it engaged before it returns.

use std::time::{Duration, Instant};

use dgr_autodiff::parallel::{par_indexed, set_num_threads};

fn threads_of_this_process() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// The thread count once it is back at `want`, or after ten seconds.
/// `join` returns when the kernel clears the thread's id, a moment before
/// it reaps the thread's task: `/proc/self/task` may still list a thread
/// just joined. A thread left running never leaves the list.
fn threads_settled_at(want: Option<usize>) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = threads_of_this_process();
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn two_thousand_fan_outs_leave_no_thread_behind() {
    set_num_threads(2);
    let before = threads_of_this_process();
    for round in 0..2000usize {
        let got = par_indexed(64, 1, |i| vec![round + i]);
        assert_eq!(got[0], [round]);
        assert_eq!(got[63], [round + 63]);
    }
    assert_eq!(threads_settled_at(before), before);
}
