//! Point-to-point mailboxes with virtual arrival times.
//!
//! Each rank owns one mailbox. A message carries its sender, a user tag, a
//! per-sender sequence number (FIFO per channel, deterministic drain order)
//! and the virtual time at which it *arrives* at the destination under the
//! Hockney model. A receive suspends until a matching envelope exists and
//! then advances the receiver's clock to `max(local clock, arrival)`.
//!
//! Like the [`crate::hub`], the mailbox never blocks a thread:
//! [`MailboxSet::poll_recv`] parks the rank's [`Waker`] under the inbox
//! lock so that the `post` making a message available can wake exactly the
//! rank suspended on it — at most one waker per post, woken directly once
//! the inbox lock is released.

use crate::time::VirtualTime;
use parking_lot::Mutex;
use std::any::Any;
use std::task::Waker;

/// A tag distinguishing message streams (like an MPI tag).
pub type Tag = u64;

struct Envelope {
    from: usize,
    tag: Tag,
    seq: u64,
    arrival: VirtualTime,
    payload: Box<dyn Any + Send>,
}

/// A received message: payload plus its metadata.
pub struct Received<T> {
    /// Sender rank.
    pub from: usize,
    /// Per-sender sequence number.
    pub seq: u64,
    /// Virtual arrival time at the destination.
    pub arrival: VirtualTime,
    /// The payload.
    pub value: T,
}

/// One rank's inbox: the deposited envelopes plus the waker of the rank
/// suspended in `poll_recv` (at most one — a rank runs one receive at a
/// time).
struct Inbox {
    envelopes: Vec<Envelope>,
    waker: Option<Waker>,
}

/// The set of mailboxes for one run (indexed by destination rank).
pub struct MailboxSet {
    boxes: Vec<Mutex<Inbox>>,
}

impl MailboxSet {
    /// Create mailboxes for `size` ranks.
    pub fn new(size: usize) -> Self {
        Self {
            boxes: (0..size)
                .map(|_| Mutex::new(Inbox { envelopes: Vec::new(), waker: None }))
                .collect(),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.boxes.len()
    }

    /// Deposit a message for `to`. `seq` must be monotonically increasing per
    /// sender (the [`crate::ctx::SpmdCtx`] manages this). Wakes the
    /// destination rank if it is suspended in a receive.
    pub fn post<T: Send + 'static>(
        &self,
        from: usize,
        to: usize,
        tag: Tag,
        seq: u64,
        arrival: VirtualTime,
        value: T,
    ) {
        assert!(to < self.boxes.len(), "destination rank {to} out of range");
        let mut inbox = self.boxes[to].lock();
        inbox.envelopes.push(Envelope { from, tag, seq, arrival, payload: Box::new(value) });
        let waker = inbox.waker.take();
        drop(inbox);
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Take the FIFO-next matching envelope out of `inbox`, if present.
    fn take_match<T: Send + 'static>(
        inbox: &mut Vec<Envelope>,
        me: usize,
        from: usize,
        tag: Tag,
    ) -> Option<Received<T>> {
        // Lowest-seq match = FIFO within the (from, tag) channel.
        let mut best: Option<(usize, u64)> = None;
        for (i, env) in inbox.iter().enumerate() {
            if env.from == from && env.tag == tag {
                match best {
                    Some((_, seq)) if env.seq >= seq => {}
                    _ => best = Some((i, env.seq)),
                }
            }
        }
        let (idx, _) = best?;
        let env = inbox.swap_remove(idx);
        let value = *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("rank {me}: type mismatch receiving tag {tag} from rank {from}")
        });
        Some(Received { from: env.from, seq: env.seq, arrival: env.arrival, value })
    }

    /// Receive the next message from `from` with tag `tag` (FIFO per
    /// sender/tag channel): `None` when no matching message has been
    /// posted yet, in which case `waker` is parked — the registration
    /// happens under the inbox lock, so a concurrent `post` either
    /// satisfies this poll or finds the waker to wake; a wakeup can never
    /// fall between the check and the park.
    pub(crate) fn poll_recv<T: Send + 'static>(
        &self,
        me: usize,
        from: usize,
        tag: Tag,
        waker: &Waker,
    ) -> Option<Received<T>> {
        let mut inbox = self.boxes[me].lock();
        match Self::take_match(&mut inbox.envelopes, me, from, tag) {
            Some(received) => Some(received),
            None => {
                inbox.waker = Some(waker.clone());
                None
            }
        }
    }

    /// Drain every currently deposited message with tag `tag`, in
    /// deterministic `(from, seq)` order.
    ///
    /// Intended for BSP use: after a barrier, all messages posted during the
    /// previous superstep are guaranteed to be present, so the drained *set*
    /// is deterministic even though physical arrival order is not.
    pub fn drain<T: Send + 'static>(&self, me: usize, tag: Tag) -> Vec<Received<T>> {
        let mut inbox = self.boxes[me].lock();
        let mut out = Vec::new();
        let mut i = 0;
        while i < inbox.envelopes.len() {
            if inbox.envelopes[i].tag == tag {
                let env = inbox.envelopes.swap_remove(i);
                let value = *env
                    .payload
                    .downcast::<T>()
                    .unwrap_or_else(|_| panic!("rank {me}: type mismatch draining tag {tag}"));
                out.push(Received { from: env.from, seq: env.seq, arrival: env.arrival, value });
            } else {
                i += 1;
            }
        }
        drop(inbox);
        out.sort_by_key(|r| (r.from, r.seq));
        out
    }

    /// Number of messages currently waiting in `me`'s mailbox (all tags).
    pub fn pending(&self, me: usize) -> usize {
        self.boxes[me].lock().envelopes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A receive whose message is already posted.
    fn recv<T: Send + 'static>(mail: &MailboxSet, me: usize, from: usize, tag: Tag) -> Received<T> {
        mail.poll_recv(me, from, tag, Waker::noop()).expect("posted")
    }

    #[test]
    fn post_then_recv() {
        let mail = MailboxSet::new(2);
        mail.post(0, 1, 7, 0, VirtualTime::from_secs(1.5), String::from("hello"));
        let got = recv::<String>(&mail, 1, 0, 7);
        assert_eq!(got.value, "hello");
        assert_eq!(got.from, 0);
        assert_eq!(got.arrival.as_secs(), 1.5);
    }

    #[test]
    fn fifo_within_channel() {
        let mail = MailboxSet::new(2);
        for seq in 0..5u64 {
            mail.post(0, 1, 3, seq, VirtualTime::ZERO, seq);
        }
        for expect in 0..5u64 {
            assert_eq!(recv::<u64>(&mail, 1, 0, 3).value, expect);
        }
    }

    #[test]
    fn tags_do_not_interfere() {
        let mail = MailboxSet::new(2);
        mail.post(0, 1, 1, 0, VirtualTime::ZERO, 'a');
        mail.post(0, 1, 2, 1, VirtualTime::ZERO, 'b');
        assert_eq!(recv::<char>(&mail, 1, 0, 2).value, 'b');
        assert_eq!(recv::<char>(&mail, 1, 0, 1).value, 'a');
    }

    #[test]
    fn drain_is_sorted_by_sender_then_seq() {
        let mail = MailboxSet::new(4);
        mail.post(2, 0, 9, 0, VirtualTime::ZERO, 20u32);
        mail.post(1, 0, 9, 1, VirtualTime::ZERO, 11u32);
        mail.post(1, 0, 9, 0, VirtualTime::ZERO, 10u32);
        mail.post(3, 0, 8, 0, VirtualTime::ZERO, 99u32); // different tag
        let drained = mail.drain::<u32>(0, 9);
        let order: Vec<(usize, u64, u32)> =
            drained.iter().map(|r| (r.from, r.seq, r.value)).collect();
        assert_eq!(order, vec![(1, 0, 10), (1, 1, 11), (2, 0, 20)]);
        assert_eq!(mail.pending(0), 1, "other tag remains");
    }

    #[test]
    fn drain_empty_is_empty() {
        let mail = MailboxSet::new(1);
        assert!(mail.drain::<u8>(0, 0).is_empty());
    }

    #[test]
    fn poll_recv_is_nonblocking() {
        let mail = MailboxSet::new(2);
        let noop = Waker::noop();
        assert!(mail.poll_recv::<u64>(1, 0, 1, noop).is_none());
        mail.post(0, 1, 1, 0, VirtualTime::from_secs(0.5), 99u64);
        let got = mail.poll_recv::<u64>(1, 0, 1, noop).expect("posted");
        assert_eq!(got.value, 99);
        assert_eq!(got.arrival.as_secs(), 0.5);
        assert!(mail.poll_recv::<u64>(1, 0, 1, noop).is_none());
    }

    #[test]
    fn post_wakes_parked_receiver() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::task::Wake;

        struct CountingWaker(Arc<AtomicUsize>);
        impl Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let wakes = Arc::new(AtomicUsize::new(0));
        let waker = Waker::from(Arc::new(CountingWaker(Arc::clone(&wakes))));
        let mail = MailboxSet::new(2);
        assert!(mail.poll_recv::<u64>(1, 0, 7, &waker).is_none());
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        mail.post(0, 1, 7, 0, VirtualTime::ZERO, 5u64);
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "post must wake the parked receiver");
        // A post with no parked receiver wakes nobody.
        mail.post(0, 1, 7, 1, VirtualTime::ZERO, 6u64);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mail = MailboxSet::new(2);
        mail.post(0, 1, 0, 0, VirtualTime::ZERO, 1u8);
        let _ = recv::<u64>(&mail, 1, 0, 0);
    }
}
