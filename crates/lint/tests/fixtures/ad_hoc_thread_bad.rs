// Fixture: starts detached threads outside the blessed concurrency
// owners.
use std::thread;

pub fn fire_and_forget(job: impl FnOnce() + Send + 'static) {
    thread::spawn(job);
}

pub fn also_flagged(job: impl FnOnce() + Send + 'static) {
    std::thread::spawn(job);
}

pub fn named_but_still_ad_hoc(job: impl FnOnce() + Send + 'static) {
    let _ = std::thread::Builder::new().name("stray".to_owned()).spawn(job);
}
