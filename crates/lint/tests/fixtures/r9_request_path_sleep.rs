// R9 fixture — posed as crates/service/src/ops.rs (in scope) and as
// crates/service/src/batch.rs (out of scope) by tests/fixtures.rs.
// Sleeps on the request path fire; method calls and definitions do not.

use std::thread::sleep;
use std::time::Duration;

pub fn bad_poll() {
    std::thread::sleep(Duration::from_millis(10)); // fires: path-qualified sleep
}

pub fn bad_imported(lag: Duration) {
    sleep(lag); // fires: imported sleep
}

pub fn tolerated() {
    // lint:allow(R9, fixture - a poller that no request waits on)
    std::thread::sleep(Duration::from_millis(20));
}

pub struct Clock;

impl Clock {
    pub fn sleep(&self, _: Duration) {}
}

pub fn not_a_thread_sleep(clock: &Clock) {
    clock.sleep(Duration::ZERO);
}
