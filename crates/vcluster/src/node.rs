//! A rank's endpoint: local virtual clock, point-to-point messaging and
//! work accounting.

use crate::cost::CostModel;
use crate::trace::RankTrace;
use crate::wire::WireSize;
use bioseq::Work;
use std::any::Any;
use std::cell::Cell;
use std::sync::mpsc::{Receiver, Sender};

/// A typed message envelope with virtual-time metadata.
pub(crate) struct Envelope {
    /// Sender's virtual clock when the last payload byte left its NIC.
    pub depart: f64,
    /// Message tag; receives assert tag agreement to catch protocol bugs.
    pub tag: u64,
    /// The payload itself (never serialised — same process).
    pub payload: Box<dyn Any + Send>,
}

/// One rank of the virtual cluster.
///
/// All methods take `&self`; per-rank state lives in `Cell`s because a
/// `Node` is owned by exactly one thread.
pub struct Node {
    rank: usize,
    size: usize,
    cost: CostModel,
    clock: Cell<f64>,
    compute_s: Cell<f64>,
    comm_s: Cell<f64>,
    bytes_sent: Cell<u64>,
    msgs_sent: Cell<u64>,
    msgs_received: Cell<u64>,
    pub(crate) coll_seq: Cell<u64>,
    senders: Vec<Sender<Envelope>>,
    receivers: Vec<Receiver<Envelope>>,
}

impl Node {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        cost: CostModel,
        senders: Vec<Sender<Envelope>>,
        receivers: Vec<Receiver<Envelope>>,
    ) -> Self {
        debug_assert_eq!(senders.len(), size);
        debug_assert_eq!(receivers.len(), size);
        Node {
            rank,
            size,
            cost,
            clock: Cell::new(0.0),
            compute_s: Cell::new(0.0),
            comm_s: Cell::new(0.0),
            bytes_sent: Cell::new(0),
            msgs_sent: Cell::new(0),
            msgs_received: Cell::new(0),
            coll_seq: Cell::new(0),
            senders,
            receivers,
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual clock in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// The cost model in force.
    #[inline]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Advance the clock by modelled *computation* seconds.
    pub fn advance(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "time cannot run backwards");
        self.clock.set(self.clock.get() + seconds);
        self.compute_s.set(self.compute_s.get() + seconds);
    }

    /// Charge a unit of abstract work against the clock.
    pub fn compute(&self, work: Work) {
        self.advance(self.cost.work_seconds(&work));
    }

    fn advance_comm(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock.set(self.clock.get() + seconds);
        self.comm_s.set(self.comm_s.get() + seconds);
    }

    /// Send `msg` to `dst` with `tag`.
    ///
    /// The sender's clock advances by the send overhead plus the wire time
    /// of the payload; the message then needs one network latency to
    /// arrive (modelled on the receive side).
    pub fn send<M: WireSize + Send + 'static>(&self, dst: usize, tag: u64, msg: M) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let bytes = msg.wire_bytes();
        self.advance_comm(self.cost.send_seconds(bytes));
        let env = Envelope { depart: self.clock.get(), tag, payload: Box::new(msg) };
        self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
        self.msgs_sent.set(self.msgs_sent.get() + 1);
        self.senders[dst].send(env).expect("peer rank hung up");
    }

    /// Receive the next message from `src`, asserting it carries `tag`.
    ///
    /// Blocks (in real time) until the peer thread has sent; in virtual
    /// time, the receiver's clock jumps to the message arrival time if the
    /// message was still in flight, then pays the receive overhead.
    ///
    /// # Panics
    /// Panics when the next message from `src` carries a different tag —
    /// this always indicates an SPMD protocol bug.
    pub fn recv<M: WireSize + Send + 'static>(&self, src: usize, tag: u64) -> M {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let env = self.receivers[src].recv().expect("peer rank hung up");
        assert_eq!(
            env.tag, tag,
            "rank {}: tag mismatch receiving from {src} (got {}, want {tag})",
            self.rank, env.tag
        );
        let arrival = env.depart + self.cost.latency;
        let now = self.clock.get();
        let wait = (arrival - now).max(0.0);
        self.advance_comm(wait + self.cost.recv_overhead);
        self.msgs_received.set(self.msgs_received.get() + 1);
        *env.payload.downcast::<M>().unwrap_or_else(|_| {
            panic!("rank {}: type mismatch receiving tag {tag} from {src}", self.rank)
        })
    }

    /// Finalise this rank's trace (called by the cluster runner).
    pub(crate) fn finish(self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            compute_s: self.compute_s.get(),
            comm_s: self.comm_s.get(),
            bytes_sent: self.bytes_sent.get(),
            msgs_sent: self.msgs_sent.get(),
            msgs_received: self.msgs_received.get(),
            final_clock: self.clock.get(),
        }
    }
}
