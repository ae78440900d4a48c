//! The primary's end of one replica connection.
//!
//! A PRINS replica applies `A_new = P' ⊕ A_old` in place, so an answer
//! credited to the wrong frame hides a lost parity. Answers carry no
//! frame identity, only the epoch the replica last saw; [`ReplicaLink`]
//! is the one implementation of matching them:
//!
//! * every frame is sealed under the current epoch (1 at start) and
//!   queued, FIFO, with that epoch and a caller-chosen tag;
//! * [`collect`](ReplicaLink::collect) drops answers older than the
//!   oldest frame's epoch (their frames were already booked as failed),
//!   except a [`NAK_CORRUPT`], which cannot echo the epoch of the frame
//!   it rejects;
//! * a failed receive leaves the answer on its way, so it opens a new
//!   epoch: the late answer then reads as stale;
//! * [`abandon`](ReplicaLink::abandon) gives up on what is in flight
//!   and opens a new epoch (rejoin, migration cutover, a failed batch).
//!
//! Policy — retransmit, degrade, re-mark dirty — stays with the caller.

use std::collections::VecDeque;
use std::time::Duration;

use prins_net::Transport;

use crate::seal::{
    classify_response, seal_batch_frame_into, seal_begin, seal_frame_into, Response, NAK_CORRUPT,
};
use crate::ReplError;

/// The primary's end of one replica connection: the transport, the
/// current epoch and the FIFO of frames sent but not yet answered, each
/// with the epoch it was sealed under and a caller-chosen tag `T`.
pub struct ReplicaLink<T> {
    transport: Box<dyn Transport>,
    /// The replica's index, carried in errors.
    replica: usize,
    epoch: u64,
    in_flight: VecDeque<(u64, T)>,
}

/// The answer to the oldest in-flight frame, as collected by
/// [`ReplicaLink::collect`].
#[derive(Debug)]
pub struct Collected<T, R> {
    /// The tag the frame was sent with.
    pub tag: T,
    /// What the answer said: the value picked out of it, or why there
    /// is none (a failed receive, a NAK, a corrupt NAK, misaligned or
    /// damaged traffic).
    pub result: Result<R, ReplError>,
    /// Answers from older epochs dropped before this one.
    pub stale: u32,
    /// Whether the answer was a [`NAK_CORRUPT`]: the frame was damaged
    /// in flight and may be resent.
    pub corrupt_nak: bool,
    /// Wire length of the answer (0 after a failed receive).
    pub received: usize,
}

impl<T> ReplicaLink<T> {
    /// Wraps the connection to replica `replica`, starting at epoch 1.
    pub fn new(replica: usize, transport: Box<dyn Transport>) -> Self {
        Self {
            transport,
            replica,
            epoch: 1,
            in_flight: VecDeque::new(),
        }
    }

    /// Gives the transport back (whatever is in flight is dropped).
    pub fn into_transport(self) -> Box<dyn Transport> {
        self.transport
    }

    /// Frames sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The tags of the in-flight frames, oldest first.
    pub fn tags(&self) -> impl Iterator<Item = &T> {
        self.in_flight.iter().map(|(_, tag)| tag)
    }

    /// Seals `inner` under the current epoch into `out` (replacing its
    /// contents), sends it and queues `tag`. Returns the sealed length.
    ///
    /// # Errors
    ///
    /// [`ReplError::Net`] if the send fails; the frame never left, so
    /// nothing is queued. The same holds for every send below.
    pub fn send(&mut self, inner: &[u8], out: &mut Vec<u8>, tag: T) -> Result<usize, ReplError> {
        self.send_with(out, |out| out.extend_from_slice(inner), tag)
    }

    /// [`send`](Self::send) with the inner frame appended in place by
    /// `write`, so it is never staged in a buffer of its own.
    pub fn send_with(
        &mut self,
        out: &mut Vec<u8>,
        write: impl FnOnce(&mut Vec<u8>),
        tag: T,
    ) -> Result<usize, ReplError> {
        out.clear();
        let seal = seal_begin(self.epoch, out);
        write(out);
        seal.finish(out);
        self.transport.send(out)?;
        self.in_flight.push_back((self.epoch, tag));
        Ok(out.len())
    }

    /// Seals `payloads` under the current epoch into the tag's own
    /// buffer — one payload as a plain frame, several as one
    /// [`BatchFrame`](crate::BatchFrame) covered by one checksum pass —
    /// sends it and queues the tag, which retains the frame for
    /// [`resend`](Self::resend). Returns the sealed length.
    pub fn send_retained<P: AsRef<[u8]>>(
        &mut self,
        payloads: &[P],
        mut tag: T,
    ) -> Result<usize, ReplError>
    where
        T: AsMut<Vec<u8>> + AsRef<[u8]>,
    {
        let out = tag.as_mut();
        out.clear();
        match payloads {
            [single] => seal_frame_into(self.epoch, single.as_ref(), out),
            _ => seal_batch_frame_into(self.epoch, payloads, out),
        }
        let len = tag.as_ref().len();
        self.resend(tag)?;
        Ok(len)
    }

    /// Sends a retained frame again and queues it behind whatever is in
    /// flight — its answer comes after theirs. The tag is the frame.
    /// The copy keeps the epoch it was sealed under, so resend only a
    /// frame sealed under the current epoch (one collected with no
    /// epoch opened since).
    pub fn resend(&mut self, tag: T) -> Result<(), ReplError>
    where
        T: AsRef<[u8]>,
    {
        self.transport.send(tag.as_ref())?;
        self.in_flight.push_back((self.epoch, tag));
        Ok(())
    }

    /// Waits up to `timeout` per receive for the answer to the oldest
    /// in-flight frame and hands it to `take`, which picks out the
    /// expected kind of answer; any other kind is misaligned traffic
    /// ([`ReplError::MissingAck`]). Answers from an epoch older than
    /// the frame's are dropped and counted in [`Collected::stale`]. A
    /// failed receive opens a new epoch. Returns `None` when nothing is
    /// in flight.
    pub fn collect<R>(
        &mut self,
        timeout: Duration,
        take: impl FnOnce(Response<'_>) -> Option<R>,
    ) -> Option<Collected<T, R>> {
        let (epoch, tag) = self.in_flight.pop_front()?;
        let (mut stale, mut corrupt_nak, mut received) = (0, false, 0);
        let result = loop {
            let frame = match self.transport.recv_timeout(timeout) {
                Ok(frame) => frame,
                Err(e) => {
                    self.epoch += 1;
                    break Err(e.into());
                }
            };
            let result = match classify_response(&frame, self.replica, epoch) {
                Ok(Response::Stale) => {
                    stale += 1;
                    continue;
                }
                Ok(answer) => take(answer).ok_or(ReplError::MissingAck {
                    replica: self.replica,
                    got: frame.first().copied(),
                }),
                Err(e) => {
                    corrupt_nak = frame.first() == Some(&NAK_CORRUPT)
                        && matches!(e, ReplError::ChecksumMismatch { .. });
                    Err(e)
                }
            };
            received = frame.len();
            break result;
        };
        Some(Collected {
            tag,
            result,
            stale,
            corrupt_nak,
            received,
        })
    }

    /// [`collect`](Self::collect) expecting a plain ACK.
    pub fn collect_ack(&mut self, timeout: Duration) -> Option<Collected<T, ()>> {
        self.collect(timeout, |answer| (answer == Response::Ack).then_some(()))
    }

    /// Gives up on every in-flight frame and opens a new epoch: answers
    /// still on their way identify themselves as stale.
    pub fn abandon(&mut self) {
        self.epoch += 1;
        self.in_flight.clear();
    }

    /// Swaps in a new connection to the same replica slot, abandoning
    /// whatever was in flight on the old one.
    pub fn reconnect(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
        self.abandon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_ack, encode_response, seal_frame, BatchFrame, ACK, NAK};
    use prins_net::{channel_pair, ChannelTransport, LinkModel, NetError};

    const SHORT: Duration = Duration::from_millis(20);

    fn link<T>() -> (ReplicaLink<T>, ChannelTransport) {
        let (a, b) = channel_pair(LinkModel::t1());
        (ReplicaLink::new(0, Box::new(a)), b)
    }

    #[test]
    fn frames_are_sealed_under_the_current_epoch_and_answered_in_order() {
        let (mut link, replica) = link();
        let mut out = Vec::new();
        link.send(b"one", &mut out, 1).unwrap();
        assert_eq!(out, seal_frame(1, b"one"));
        link.send_with(&mut out, |o| o.push(2), 2).unwrap();
        assert_eq!(out, seal_frame(1, &[2]));
        assert_eq!(link.tags().copied().collect::<Vec<_>>(), [1, 2]);
        replica.send(&encode_ack(ACK, 1)).unwrap();
        replica.send(&encode_ack(NAK, 1)).unwrap();
        let first = link.collect_ack(SHORT).unwrap();
        assert_eq!((first.tag, first.stale, first.received), (1, 0, 2));
        assert!(first.result.is_ok());
        let second = link.collect_ack(SHORT).unwrap();
        assert!(matches!(second.result, Err(ReplError::Nak { replica: 0 })));
        assert!(link.collect_ack(SHORT).is_none());
    }

    #[test]
    fn a_failed_receive_or_abandon_opens_an_epoch_and_late_answers_drop() {
        let (mut link, replica) = link();
        let mut out = Vec::new();
        link.send(b"late", &mut out, 7).unwrap();
        let failed = link.collect_ack(SHORT).unwrap();
        assert!(matches!(
            failed.result,
            Err(ReplError::Net(NetError::Timeout))
        ));
        // The late answer surfaces ahead of the next frame's.
        replica.send(&encode_ack(ACK, 1)).unwrap();
        link.send(b"next", &mut out, 8).unwrap();
        assert_eq!(out, seal_frame(2, b"next"));
        replica.send(&encode_ack(NAK, 2)).unwrap();
        let next = link.collect_ack(SHORT).unwrap();
        assert_eq!((next.tag, next.stale), (8, 1));
        assert!(matches!(next.result, Err(ReplError::Nak { .. })));

        link.send(b"dropped", &mut out, 9).unwrap();
        link.abandon();
        assert_eq!(link.in_flight(), 0);
        link.send(b"after", &mut out, 10).unwrap();
        assert_eq!(out, seal_frame(3, b"after"));
        replica.send(&encode_ack(ACK, 2)).unwrap();
        replica.send(&encode_ack(ACK, 3)).unwrap();
        let after = link.collect_ack(SHORT).unwrap();
        assert_eq!((after.tag, after.stale), (10, 1));
    }

    #[test]
    fn retained_frames_seal_plain_or_batched_and_resend_after_a_corrupt_nak() {
        let (mut link, replica) = link::<Vec<u8>>();
        let batch = BatchFrame {
            payloads: vec![b"a".to_vec(), b"b".to_vec()],
        };
        link.send_retained(&batch.payloads, Vec::new()).unwrap();
        assert_eq!(replica.recv().unwrap(), seal_frame(1, &batch.to_bytes()));
        replica.send(&encode_ack(ACK, 1)).unwrap();
        assert!(link.collect_ack(SHORT).unwrap().result.is_ok());

        link.abandon();
        link.send_retained(&[b"frame"], Vec::new()).unwrap();
        let frame = replica.recv().unwrap();
        assert_eq!(frame, seal_frame(2, b"frame"));
        // A damaged frame cannot tell the replica its epoch: the answer
        // echoes the last epoch the replica saw, and still counts.
        let corrupt = Err(ReplError::ChecksumMismatch {
            expected: 0,
            got: 0,
        });
        replica.send(&encode_response(&corrupt, 1)).unwrap();
        let nak = link.collect_ack(SHORT).unwrap();
        assert!(nak.corrupt_nak && nak.stale == 0 && nak.tag == frame);
        link.resend(nak.tag).unwrap();
        assert_eq!(replica.recv().unwrap(), frame);
        replica.send(&encode_ack(ACK, 2)).unwrap();
        assert!(link.collect_ack(SHORT).unwrap().result.is_ok());
    }
}
