//! Per-rank mailboxes with MPI-style message matching.
//!
//! MPI receives match on `(communicator, tag, source)`, where tag and
//! source may be wildcards, and messages from the same sender on the same
//! communicator are non-overtaking. A mailbox is an unbounded queue of
//! envelopes protected by a mutex; a receive takes the first match without
//! blocking. Blocking lives one level up, in the rank's wait loop
//! ([`crate::proc`]), which parks through the world's scheduler between
//! attempts. Under [`crate::SchedMode::Threads`] that park is
//! `Mailbox::wait` on this mailbox's own condvar.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::proc::{Rank, SrcSel, Tag, TagSel};
use crate::time::VirtualTime;
use crate::Comm;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Communicator the message was sent on.
    pub comm: Comm,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Virtual time at which the message reaches the receiver (sender's
    /// clock at send plus transfer cost). The receiver's clock syncs to
    /// this on delivery.
    pub arrival: VirtualTime,
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<Envelope>,
    /// Wake counter for thread-mode waiters, bumped by every
    /// [`Mailbox::signal`]. A waiter snapshots it before its checks and
    /// sleeps only while it is unchanged — the lost-wakeup guard.
    epoch: u64,
}

/// One rank's incoming-message queue.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    signalled: Condvar,
}

impl Mailbox {
    /// Empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the queue, shrugging off poisoning: a rank thread that panics
    /// holds no mailbox invariants (the queue is always consistent between
    /// operations), and the world-level poison flag handles the abort.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deposit a message (called by the *sender's* thread). Waking the
    /// receiver is the scheduler's job, done once per send.
    pub fn deliver(&self, env: Envelope) {
        self.lock().queue.push_back(env);
    }

    /// Non-blocking matched receive: take the first queued envelope
    /// matching the selectors, or return `None`. Taking the *first* match
    /// of a globally FIFO queue preserves MPI's non-overtaking order.
    pub fn try_recv(&self, src: SrcSel, tag: TagSel, comm: Comm) -> Option<Envelope> {
        self.take_first(|e| Self::matches(e, src, tag, comm))
    }

    /// Non-blocking receive matching any of `srcs` on a fixed tag/comm.
    /// FIFO among the matches, so per-sender order is still non-overtaking.
    ///
    /// This is the primitive behind pipelined reductions: an interior tree
    /// rank takes child traces in *arrival* order, but only from its own
    /// children — a plain wildcard receive could steal a message a child
    /// already sent for the *next* reduction on the same tag.
    pub fn try_recv_from_set(&self, srcs: &[Rank], tag: TagSel, comm: Comm) -> Option<Envelope> {
        self.take_first(|e| srcs.contains(&e.src) && Self::matches(e, SrcSel::Any, tag, comm))
    }

    fn take_first(&self, pred: impl Fn(&Envelope) -> bool) -> Option<Envelope> {
        let mut inner = self.lock();
        let pos = inner.queue.iter().position(pred)?;
        inner.queue.remove(pos)
    }

    /// Non-blocking probe: would `try_recv` with these selectors succeed?
    /// Returns the matched envelope's metadata without consuming it.
    pub fn probe(&self, src: SrcSel, tag: TagSel, comm: Comm) -> Option<(Rank, Tag, usize)> {
        let inner = self.lock();
        inner
            .queue
            .iter()
            .find(|e| Self::matches(e, src, tag, comm))
            .map(|e| (e.src, e.tag, e.payload.len()))
    }

    /// Number of queued (undelivered) messages; used by shutdown checks
    /// and tests.
    pub fn backlog(&self) -> usize {
        self.lock().queue.len()
    }

    /// The current wake epoch (thread mode's `pre_wait`).
    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Bump the wake epoch and wake every thread blocked in
    /// [`Mailbox::wait`].
    pub(crate) fn signal(&self) {
        self.lock().epoch += 1;
        self.signalled.notify_all();
    }

    /// Block until the wake epoch moves past `seen` or `deadline` passes.
    pub(crate) fn wait(&self, seen: u64, deadline: Option<Instant>) {
        let mut inner = self.lock();
        while inner.epoch == seen {
            inner = match deadline {
                None => self
                    .signalled
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return;
                    }
                    self.signalled
                        .wait_timeout(inner, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    fn matches(e: &Envelope, src: SrcSel, tag: TagSel, comm: Comm) -> bool {
        if e.comm != comm {
            return false;
        }
        if let SrcSel::Rank(r) = src {
            if e.src != r {
                return false;
            }
        }
        if let TagSel::Tag(t) = tag {
            if e.tag != t {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn env(src: Rank, tag: Tag, comm: Comm, byte: u8) -> Envelope {
        Envelope {
            src,
            tag,
            comm,
            payload: vec![byte],
            arrival: 0.0,
        }
    }

    /// `try_recv` on a mailbox known to hold a match.
    fn take(mb: &Mailbox, src: SrcSel, tag: TagSel, comm: Comm) -> Envelope {
        mb.try_recv(src, tag, comm)
            .expect("a matching envelope is queued")
    }

    #[test]
    fn exact_match_delivery() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 7, Comm::WORLD, 0xaa));
        let got = take(&mb, SrcSel::Rank(3), TagSel::Tag(7), Comm::WORLD);
        assert_eq!(got.payload, vec![0xaa]);
        assert_eq!(mb.backlog(), 0);
    }

    #[test]
    fn mismatched_messages_left_queued() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 1, Comm::WORLD, 1));
        mb.deliver(env(2, 2, Comm::WORLD, 2));
        let got = take(&mb, SrcSel::Rank(2), TagSel::Tag(2), Comm::WORLD);
        assert_eq!(got.payload, vec![2]);
        assert_eq!(mb.backlog(), 1, "non-matching message must stay queued");
        assert!(mb
            .try_recv(SrcSel::Rank(2), TagSel::Tag(2), Comm::WORLD)
            .is_none());
    }

    #[test]
    fn wildcard_source_takes_first() {
        let mb = Mailbox::new();
        mb.deliver(env(5, 9, Comm::WORLD, 5));
        mb.deliver(env(6, 9, Comm::WORLD, 6));
        let got = take(&mb, SrcSel::Any, TagSel::Tag(9), Comm::WORLD);
        assert_eq!(got.src, 5, "FIFO among matches");
    }

    #[test]
    fn wildcard_tag() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 42, Comm::WORLD, 1));
        let got = take(&mb, SrcSel::Rank(1), TagSel::Any, Comm::WORLD);
        assert_eq!(got.tag, 42);
    }

    #[test]
    fn comm_isolation() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 1, Comm(9), 9));
        mb.deliver(env(1, 1, Comm::WORLD, 0));
        let got = take(&mb, SrcSel::Rank(1), TagSel::Tag(1), Comm::WORLD);
        assert_eq!(got.payload, vec![0], "must not cross communicators");
    }

    #[test]
    fn non_overtaking_per_sender() {
        let mb = Mailbox::new();
        for i in 0..10u8 {
            mb.deliver(env(4, 1, Comm::WORLD, i));
        }
        for i in 0..10u8 {
            let got = take(&mb, SrcSel::Rank(4), TagSel::Tag(1), Comm::WORLD);
            assert_eq!(got.payload, vec![i]);
        }
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        mb.deliver(env(2, 3, Comm::WORLD, 7));
        let p = mb.probe(SrcSel::Any, TagSel::Any, Comm::WORLD);
        assert_eq!(p, Some((2, 3, 1)));
        assert_eq!(mb.backlog(), 1);
        assert!(mb
            .probe(SrcSel::Rank(9), TagSel::Any, Comm::WORLD)
            .is_none());
    }

    #[test]
    fn set_receive_takes_arrival_order_within_set() {
        let mb = Mailbox::new();
        mb.deliver(env(9, 5, Comm::WORLD, 9)); // not in set
        mb.deliver(env(4, 5, Comm::WORLD, 4));
        mb.deliver(env(2, 5, Comm::WORLD, 2));
        let got = mb
            .try_recv_from_set(&[2, 4], TagSel::Tag(5), Comm::WORLD)
            .expect("match available");
        assert_eq!(got.src, 4, "first arrival among the set wins");
        let got2 = mb
            .try_recv_from_set(&[2, 4], TagSel::Tag(5), Comm::WORLD)
            .expect("second match");
        assert_eq!(got2.src, 2);
        assert!(mb
            .try_recv_from_set(&[2, 4], TagSel::Tag(5), Comm::WORLD)
            .is_none());
        assert_eq!(mb.backlog(), 1, "out-of-set message stays queued");
    }

    #[test]
    fn wait_returns_on_signal_or_deadline() {
        let mb = Arc::new(Mailbox::new());
        // A signal that lands before the wait is not lost.
        let seen = mb.epoch();
        mb.signal();
        mb.wait(seen, None);
        // A signal from another thread wakes an untimed waiter.
        let seen = mb.epoch();
        let signaller = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                mb.signal();
            })
        };
        mb.wait(seen, None);
        signaller.join().unwrap();
        // With no signal, a timed wait gives up at its deadline.
        let seen = mb.epoch();
        let start = Instant::now();
        mb.wait(seen, Some(start + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(mb.epoch(), seen);
    }
}
