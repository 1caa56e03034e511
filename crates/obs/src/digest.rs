//! Order-sensitive digests over event streams.
//!
//! The record-and-replay driver and the divergence bisector need a cheap
//! "have these two runs agreed so far?" predicate at every snapshot
//! point. Comparing whole event vectors is O(events); a running 64-bit
//! digest folds each event in as it is recorded, so two prefixes compare
//! in O(1) and the first disagreeing digest brackets where to replay.
//!
//! [`fnv1a_extend`] is the workspace's one FNV-1a: campaign spec
//! fingerprints, serving verdict identities and bench record digests
//! fold through it too.
//!
//! The digest is FNV-1a over each event's canonical JSON encoding — the
//! same encoding a recording stores its events in, so equal digests
//! mean the serialized streams are byte-identical. FNV is *not*
//! cryptographic; this is a debugging aid, and any collision is caught
//! downstream by the event-by-event comparison the bisector finishes
//! with.

use crate::event::Event;

/// FNV-1a offset basis: the hash of the empty input, and the start of
/// every [`fnv1a_extend`] chain.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a hash `hash`, in order.
///
/// ```
/// assert_eq!(obs::fnv1a_extend(obs::FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[must_use]
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

/// An incremental, order-sensitive digest of an event stream.
///
/// ```
/// use obs::{EventDigest, EventKind, IrqClass};
///
/// let event = obs::Event { at_ps: 10, track: 0, kind: EventKind::ProbeSample {
///     segcnt: 3,
///     irq: IrqClass::Timer,
/// }};
/// let mut a = EventDigest::new();
/// a.update(&event);
/// let mut b = EventDigest::new();
/// b.update(&event);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest {
    state: u64,
}

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest::new()
    }
}

impl EventDigest {
    /// An empty digest (the FNV offset basis).
    #[must_use]
    pub fn new() -> Self {
        EventDigest { state: FNV1A_BASIS }
    }

    /// Folds one event into the digest.
    pub fn update(&mut self, event: &Event) {
        let encoded =
            serde_json::to_string(event).expect("events contain only integers and unit variants");
        // A terminator byte no JSON encoding contains, so event
        // boundaries cannot alias across concatenations.
        self.state = fnv1a_extend(fnv1a_extend(self.state, encoded.as_bytes()), &[0xFF]);
    }

    /// The digest of everything folded in so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Digests a whole event slice in order.
#[must_use]
pub fn digest_events(events: &[Event]) -> u64 {
    let mut digest = EventDigest::new();
    for event in events {
        digest.update(event);
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, IrqClass};

    fn ev(at: u64, segcnt: u64) -> Event {
        Event {
            at_ps: at,
            track: 0,
            kind: EventKind::ProbeSample {
                segcnt,
                irq: IrqClass::Timer,
            },
        }
    }

    #[test]
    fn equal_streams_digest_equal() {
        let a = vec![ev(1, 0), ev(2, 1), ev(3, 0)];
        assert_eq!(digest_events(&a), digest_events(&a.clone()));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = vec![ev(1, 0), ev(2, 1)];
        let b = vec![ev(2, 1), ev(1, 0)];
        assert_ne!(digest_events(&a), digest_events(&b));
    }

    #[test]
    fn single_field_change_changes_digest() {
        assert_ne!(digest_events(&[ev(1, 0)]), digest_events(&[ev(1, 1)]));
        assert_ne!(digest_events(&[ev(1, 0)]), digest_events(&[ev(2, 0)]));
    }

    #[test]
    fn boundary_cannot_alias() {
        // Same concatenated payload split differently must not collide:
        // the per-event terminator separates [a,b] from [a] then [b]
        // folded into a fresh digest resumed from the first.
        let mut one = EventDigest::new();
        one.update(&ev(1, 0));
        let mut two = one;
        two.update(&ev(2, 1));
        assert_ne!(one.finish(), two.finish());
    }

    #[test]
    fn incremental_matches_batch() {
        let events = vec![ev(1, 0), ev(5, 2), ev(9, 4)];
        let mut inc = EventDigest::new();
        for e in &events {
            inc.update(e);
        }
        assert_eq!(inc.finish(), digest_events(&events));
    }
}
