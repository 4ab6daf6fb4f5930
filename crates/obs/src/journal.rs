//! The deterministic event journal: typed structured events keyed by **logical
//! time** (batch number plus a logical track), never wall clock.
//!
//! Two same-seed runs must produce byte-identical journals — that is only possible
//! if nothing nondeterministic leaks into the compared fields. The rules:
//!
//! * the key is `(batch, track)` — the batcher's dispatched-batch count plus a
//!   logical role. Tracks never carry worker ids: *which* worker thread serves a
//!   batch is scheduler-dependent, but *what happens to the batch* is not.
//! * wall-clock readings ride along as the `at_seconds` annotation, excluded from
//!   [`Event::logical_line`] and therefore from every replay comparison.
//! * within one `(batch, track)` key all events come from a single emitter thread
//!   (the serve engine's batcher emits every journal event), so a stable sort by
//!   key yields one canonical order regardless of shard flush interleaving.

use crate::json::JsonValue;

/// The logical role an event belongs to. Deliberately coarse — no worker ids (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The batcher / engine itself.
    Batcher,
    /// The in-path weight fetch: the batch's verified image build.
    Fetch,
    /// Scrub sweeps of the stored image.
    Scrub,
    /// Key-rotation ticks.
    Rotate,
    /// The scripted adversary's strikes.
    Strike,
}

impl Track {
    /// Stable lowercase name used in journal lines and exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Track::Batcher => "batcher",
            Track::Fetch => "fetch",
            Track::Scrub => "scrub",
            Track::Rotate => "rotate",
            Track::Strike => "strike",
        }
    }
}

/// One action of a key-rotation roll, as recorded in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationKind {
    /// A roll to the given epoch began.
    Began {
        /// The pending epoch's index.
        epoch: u32,
    },
    /// One layer was re-signed under the pending epoch.
    Resigned {
        /// The re-signed layer.
        layer: u64,
        /// Groups the pre-sign check recovered in that layer.
        groups_recovered: u64,
    },
    /// The fully re-signed epoch was published as current.
    Published {
        /// The published epoch's index.
        epoch: u32,
    },
    /// The previous epoch's acceptance window closed.
    Retired {
        /// The retired epoch's index.
        epoch: u32,
    },
}

/// What happened. Every variant carries only logical payload — counts, indices,
/// epochs — never durations or timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A batch's weights were fetched (and in-path verified when configured) under
    /// the given pinned epoch.
    Fetch {
        /// The key epoch the fetch verified under.
        epoch: u32,
    },
    /// A verification pass completed (in-path or scrub), flagging `groups_flagged`
    /// groups (usually 0).
    Verify {
        /// Signature groups flagged by the pass.
        groups_flagged: u64,
    },
    /// A verification pass flagged at least one group — an attack detection.
    Detect {
        /// Whether a scrub sweep (vs the in-path check) detected it.
        via_scrub: bool,
        /// Signature groups flagged.
        groups_flagged: u64,
    },
    /// Flagged groups were zeroed in the DRAM image and re-signed.
    Recover {
        /// Groups zeroed.
        groups_zeroed: u64,
        /// Individual weights zeroed.
        weights_zeroed: u64,
    },
    /// One key-rotation action.
    Rotation(RotationKind),
    /// The adversary mounted one rowhammer strike.
    Strike {
        /// Flips that landed.
        flips_landed: u64,
        /// Flips that missed.
        flips_missed: u64,
        /// Distinct rows hammered.
        rows_hammered: u64,
    },
    /// Scripted strikes whose batch offsets the run never reached.
    StrikeNeverFired {
        /// Strikes left unfired when service ended.
        remaining: u64,
    },
}

/// One journal entry: a logical key, a typed payload, and a non-compared wall-clock
/// annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Batch index (the engine's logical clock) the event is attributed to.
    pub batch: u64,
    /// Logical track.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock seconds since the session started — an annotation, **excluded**
    /// from logical comparisons and from [`Event::logical_line`].
    pub at_seconds: f64,
}

impl Event {
    /// The event's logical fields as one JSON line (no trailing newline). This is
    /// the byte-compared replay representation: two same-seed runs must produce
    /// identical sequences of these lines.
    #[must_use]
    pub fn logical_line(&self) -> String {
        let line = JsonValue::object()
            .with("batch", self.batch)
            .with("track", self.track.name());
        let line = match self.kind {
            EventKind::Fetch { epoch } => line.with("event", "fetch").with("epoch", epoch),
            EventKind::Verify { groups_flagged } => line
                .with("event", "verify")
                .with("groups_flagged", groups_flagged),
            EventKind::Detect {
                via_scrub,
                groups_flagged,
            } => line
                .with("event", "detect")
                .with("via_scrub", via_scrub)
                .with("groups_flagged", groups_flagged),
            EventKind::Recover {
                groups_zeroed,
                weights_zeroed,
            } => line
                .with("event", "recover")
                .with("groups_zeroed", groups_zeroed)
                .with("weights_zeroed", weights_zeroed),
            EventKind::Rotation(RotationKind::Began { epoch }) => {
                line.with("event", "rotation.began").with("epoch", epoch)
            }
            EventKind::Rotation(RotationKind::Resigned {
                layer,
                groups_recovered,
            }) => line
                .with("event", "rotation.resigned")
                .with("layer", layer)
                .with("groups_recovered", groups_recovered),
            EventKind::Rotation(RotationKind::Published { epoch }) => line
                .with("event", "rotation.published")
                .with("epoch", epoch),
            EventKind::Rotation(RotationKind::Retired { epoch }) => {
                line.with("event", "rotation.retired").with("epoch", epoch)
            }
            EventKind::Strike {
                flips_landed,
                flips_missed,
                rows_hammered,
            } => line
                .with("event", "strike")
                .with("flips_landed", flips_landed)
                .with("flips_missed", flips_missed)
                .with("rows_hammered", rows_hammered),
            EventKind::StrikeNeverFired { remaining } => line
                .with("event", "strike_never_fired")
                .with("remaining", remaining),
        };
        line.render()
    }
}

/// A bounded, canonically ordered event journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventJournal {
    events: Vec<Event>,
    dropped: usize,
}

impl EventJournal {
    /// Builds a journal from raw shard-flushed events: stable-sorts by the logical
    /// key `(batch, track)` (canonical order — see the module docs), then keeps
    /// only the most recent `capacity` events ([`keep_latest`](Self::keep_latest)).
    #[must_use]
    pub fn from_events(mut events: Vec<Event>, capacity: usize) -> Self {
        events.sort_by_key(|e| (e.batch, e.track));
        let mut journal = EventJournal { events, dropped: 0 };
        journal.keep_latest(capacity);
        journal
    }

    /// Drops all but the most recent `capacity` events (ring-buffer semantics),
    /// adding them to the [`dropped`](Self::dropped) count.
    pub fn keep_latest(&mut self, capacity: usize) {
        let dropped = self.events.len().saturating_sub(capacity);
        self.events.drain(..dropped);
        self.dropped += dropped;
    }

    /// The retained events, in canonical logical order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped to honor the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole journal as logical JSONL — the byte-compared replay form.
    #[must_use]
    pub fn logical_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.logical_line());
            out.push('\n');
        }
        out
    }

    /// Logical difference against another journal: the logical lines present in
    /// exactly one of the two, each prefixed with `-` (only in `self`) or `+` (only
    /// in `other`), in order. Empty means the journals are logically identical —
    /// the replay-equality tests assert on exactly this.
    #[must_use]
    pub fn diff(&self, other: &EventJournal) -> Vec<String> {
        let mine: Vec<String> = self.events.iter().map(Event::logical_line).collect();
        let theirs: Vec<String> = other.events.iter().map(Event::logical_line).collect();
        let mut out = Vec::new();
        let common = mine.len().min(theirs.len());
        for i in 0..common {
            if mine[i] != theirs[i] {
                out.push(format!("-{}", mine[i]));
                out.push(format!("+{}", theirs[i]));
            }
        }
        for line in &mine[common..] {
            out.push(format!("-{line}"));
        }
        for line in &theirs[common..] {
            out.push(format!("+{line}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(batch: u64, track: Track, kind: EventKind) -> Event {
        Event {
            batch,
            track,
            kind,
            at_seconds: 0.5,
        }
    }

    #[test]
    fn canonical_order_is_independent_of_flush_interleaving() {
        let a = vec![
            event(0, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            event(2, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            event(2, Track::Scrub, EventKind::Verify { groups_flagged: 0 }),
        ];
        let b = vec![
            event(1, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            event(
                2,
                Track::Strike,
                EventKind::Strike {
                    flips_landed: 1,
                    flips_missed: 0,
                    rows_hammered: 1,
                },
            ),
        ];
        let mut ab = a.clone();
        ab.extend(b.clone());
        let mut ba = b;
        ba.extend(a);
        let jab = EventJournal::from_events(ab, 1024);
        let jba = EventJournal::from_events(ba, 1024);
        assert_eq!(jab.logical_jsonl(), jba.logical_jsonl());
        assert!(jab.diff(&jba).is_empty());
    }

    #[test]
    fn capacity_drops_the_oldest_events() {
        let events: Vec<Event> = (0..10)
            .map(|b| event(b, Track::Fetch, EventKind::Fetch { epoch: 0 }))
            .collect();
        let mut journal = EventJournal::from_events(events, 4);
        assert_eq!(journal.len(), 4);
        assert_eq!(journal.dropped(), 6);
        assert_eq!(journal.events()[0].batch, 6);
        // A later, tighter bound drops further and keeps counting.
        journal.keep_latest(1);
        assert_eq!(journal.dropped(), 9);
        assert_eq!(journal.events()[0].batch, 9);
    }

    #[test]
    fn logical_lines_exclude_the_wall_clock_annotation() {
        let mut e = event(
            3,
            Track::Scrub,
            EventKind::Detect {
                via_scrub: true,
                groups_flagged: 2,
            },
        );
        let line = e.logical_line();
        assert_eq!(
            line,
            r#"{"batch":3,"track":"scrub","event":"detect","via_scrub":true,"groups_flagged":2}"#
        );
        // A different wall-clock reading must not change the logical line.
        e.at_seconds = 99.0;
        assert_eq!(e.logical_line(), line);
    }

    #[test]
    fn diff_reports_divergent_and_extra_lines() {
        let a = EventJournal::from_events(
            vec![
                event(0, Track::Fetch, EventKind::Fetch { epoch: 0 }),
                event(1, Track::Fetch, EventKind::Fetch { epoch: 0 }),
            ],
            16,
        );
        let b = EventJournal::from_events(
            vec![event(0, Track::Fetch, EventKind::Fetch { epoch: 1 })],
            16,
        );
        let diff = a.diff(&b);
        assert_eq!(diff.len(), 3); // one divergent pair + one line only in `a`
        assert!(diff[0].starts_with('-'));
        assert!(diff[1].starts_with('+'));
    }

    #[test]
    fn every_kind_renders_a_distinct_event_name() {
        // The expected lines are the bytes the hand-formatted renderer produced
        // before `logical_line` moved onto `JsonValue`: replays compare against them.
        let golden = [
            (
                EventKind::Fetch { epoch: 1 },
                r#""event":"fetch","epoch":1}"#,
            ),
            (
                EventKind::Verify { groups_flagged: 0 },
                r#""event":"verify","groups_flagged":0}"#,
            ),
            (
                EventKind::Detect {
                    via_scrub: false,
                    groups_flagged: 1,
                },
                r#""event":"detect","via_scrub":false,"groups_flagged":1}"#,
            ),
            (
                EventKind::Recover {
                    groups_zeroed: 1,
                    weights_zeroed: 16,
                },
                r#""event":"recover","groups_zeroed":1,"weights_zeroed":16}"#,
            ),
            (
                EventKind::Rotation(RotationKind::Began { epoch: 1 }),
                r#""event":"rotation.began","epoch":1}"#,
            ),
            (
                EventKind::Rotation(RotationKind::Resigned {
                    layer: 2,
                    groups_recovered: 0,
                }),
                r#""event":"rotation.resigned","layer":2,"groups_recovered":0}"#,
            ),
            (
                EventKind::Rotation(RotationKind::Published { epoch: 1 }),
                r#""event":"rotation.published","epoch":1}"#,
            ),
            (
                EventKind::Rotation(RotationKind::Retired { epoch: 0 }),
                r#""event":"rotation.retired","epoch":0}"#,
            ),
            (
                EventKind::Strike {
                    flips_landed: 1,
                    flips_missed: 2,
                    rows_hammered: u64::MAX,
                },
                r#""event":"strike","flips_landed":1,"flips_missed":2,"rows_hammered":18446744073709551615}"#,
            ),
            (
                EventKind::StrikeNeverFired { remaining: 1 },
                r#""event":"strike_never_fired","remaining":1}"#,
            ),
        ];
        let mut names: Vec<String> = golden
            .iter()
            .map(|&(kind, tail)| {
                let line = event(0, Track::Batcher, kind).logical_line();
                assert_eq!(line, format!(r#"{{"batch":0,"track":"batcher",{tail}"#));
                let start = line.find(r#""event":""#).expect("event name") + 9;
                let end = start + line[start..].find('"').expect("closing quote");
                line[start..end].to_string()
            })
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), golden.len(), "event names must be distinct");
    }
}
