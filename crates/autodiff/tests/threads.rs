//! The one test of its process, so that the process's thread count is
//! the harness's two plus what [`par_indexed`] leaves behind — nothing:
//! every dispatch joins the helper it engaged before it returns.

use dgr_autodiff::parallel::{par_indexed, set_num_threads};

fn threads_of_this_process() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
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
    assert_eq!(threads_of_this_process(), before);
}
