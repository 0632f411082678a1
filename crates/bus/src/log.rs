//! A bounded audit log: the newest entries as a slice, everything older
//! as a count and a fold.
//!
//! The session's event log grows by one entry per committed command. It
//! may not grow with the run, and it may not silently forget: a
//! [`BoundedLog`] keeps between
//! [`AUDIT_WINDOW`] and 2 × [`AUDIT_WINDOW`] of the newest entries and
//! accounts for the rest with [`BoundedLog::evicted`] and
//! [`BoundedLog::fold`] — FNV-1a 64 over the evicted entries' checkpoint
//! encoding ([`LogEntry::put`]), in order, so two logs that were fed the
//! same entries agree on what they dropped.

use gridsteer_ckpt::{CkptError, SectionReader, SectionWriter};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Entries an audit log is guaranteed to retain. A log compacts — drops
/// its oldest `AUDIT_WINDOW` entries into the fold — each time it reaches
/// twice this, so it holds fewer than `2 × AUDIT_WINDOW` between pushes.
pub const AUDIT_WINDOW: usize = 4096;

/// The FNV-1a 64 offset basis: the state a digest starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a 64 state — the one byte fold behind
/// the audit-log fold, scenario-report digests, bench cells and the header
/// and tail of a monitor frame's digest
/// ([`MonitorFrame::fold_fnv`](crate::MonitorFrame::fold_fnv)).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Names shared by content while a section is decoded: a live log's
/// entries hold clones of a handful of participant and parameter names,
/// and a restored one must too — one allocation per distinct name, not
/// two per entry.
#[derive(Debug, Default)]
pub struct Names(BTreeSet<Arc<str>>);

impl Names {
    /// The shared allocation of `name`, made on first sight.
    pub fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(known) = self.0.get(name) {
            return known.clone();
        }
        let fresh: Arc<str> = Arc::from(name);
        self.0.insert(fresh.clone());
        fresh
    }
}

/// What a [`BoundedLog`] asks of its entries: their checkpoint encoding,
/// which is also what the eviction fold runs over.
pub trait LogEntry: Sized {
    /// Append this entry's checkpoint encoding.
    fn put(&self, w: &mut SectionWriter);

    /// Read back one [`LogEntry::put`] encoding, interning the names it
    /// carries in `names`.
    fn get(r: &mut SectionReader<'_>, names: &mut Names) -> Result<Self, CkptError>;
}

/// An append-only log that retains a window of its newest entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedLog<T> {
    entries: Vec<T>,
    evicted: u64,
    fold: u64,
}

impl<T> Default for BoundedLog<T> {
    fn default() -> Self {
        BoundedLog {
            entries: Vec::new(),
            evicted: 0,
            fold: FNV_OFFSET,
        }
    }
}

impl<T: LogEntry> BoundedLog<T> {
    /// Append an entry, compacting when the log reaches twice the window.
    pub fn push(&mut self, entry: T) {
        self.entries.push(entry);
        if self.entries.len() >= 2 * AUDIT_WINDOW {
            let mut w = SectionWriter::new();
            for e in self.entries.drain(..AUDIT_WINDOW) {
                w.clear();
                e.put(&mut w);
                self.fold = fnv1a(self.fold, w.as_bytes());
            }
            self.evicted += AUDIT_WINDOW as u64;
        }
    }

    /// The retained entries, oldest first.
    pub fn retained(&self) -> &[T] {
        &self.entries
    }

    /// Number of entries dropped from the front so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// FNV-1a 64 over the evicted entries' [`LogEntry::put`] bytes, in
    /// push order (the FNV offset basis while nothing has been evicted).
    pub fn fold(&self) -> u64 {
        self.fold
    }

    /// Entries ever pushed: evicted plus retained.
    pub fn total(&self) -> u64 {
        self.evicted + self.entries.len() as u64
    }

    /// Serialize as `evicted u64 | fold u64 | n u32 | entries`.
    pub fn save_into(&self, w: &mut SectionWriter) {
        w.put_u64(self.evicted);
        w.put_u64(self.fold);
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            e.put(w);
        }
    }

    /// Decode the [`save_into`](BoundedLog::save_into) layout. The tail
    /// comes back at exactly its saved length, so the restored log
    /// compacts at the same push as the log that was saved.
    pub fn restore_from(
        r: &mut SectionReader<'_>,
        names: &mut Names,
    ) -> Result<BoundedLog<T>, CkptError> {
        let evicted = r.get_u64()?;
        let fold = r.get_u64()?;
        let n = r.get_u32()? as usize;
        if n >= 2 * AUDIT_WINDOW {
            return Err(CkptError::Corrupt {
                context: format!("audit log of {n} entries exceeds its window"),
            });
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(T::get(r, names)?);
        }
        Ok(BoundedLog {
            entries,
            evicted,
            fold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogEntry for u64 {
        fn put(&self, w: &mut SectionWriter) {
            w.put_u64(*self);
        }

        fn get(r: &mut SectionReader<'_>, _: &mut Names) -> Result<u64, CkptError> {
            r.get_u64()
        }
    }

    #[test]
    fn log_keeps_a_window_and_folds_what_it_drops() {
        let mut log = BoundedLog::default();
        let pushed = 5 * AUDIT_WINDOW as u64 + 7;
        for i in 0..pushed {
            log.push(i);
            assert!(log.retained().len() < 2 * AUDIT_WINDOW);
        }
        assert_eq!(log.total(), pushed);
        assert!(log.retained().len() >= AUDIT_WINDOW);
        // the tail is the newest entries, in order
        let first = log.evicted();
        assert!(log.retained().iter().copied().eq(first..pushed));
        // the fold is FNV-1a over the dropped entries' encoding
        let mut w = SectionWriter::new();
        (0..first).for_each(|i| i.put(&mut w));
        assert_eq!(log.fold(), fnv1a(FNV_OFFSET, w.as_bytes()));
    }

    #[test]
    fn log_roundtrips_and_refuses_an_oversized_tail() {
        let mut log = BoundedLog::default();
        (0..2 * AUDIT_WINDOW as u64 + 3).for_each(|i| log.push(i));
        let mut w = SectionWriter::new();
        log.save_into(&mut w);
        let body = w.finish();
        let mut r = SectionReader::new(&body, "log");
        assert_eq!(
            BoundedLog::<u64>::restore_from(&mut r, &mut Names::default()).unwrap(),
            log
        );
        r.expect_end().unwrap();

        let mut w = SectionWriter::new();
        w.put_u64(0);
        w.put_u64(FNV_OFFSET);
        w.put_u32(2 * AUDIT_WINDOW as u32);
        let body = w.finish();
        let mut r = SectionReader::new(&body, "log");
        assert!(matches!(
            BoundedLog::<u64>::restore_from(&mut r, &mut Names::default()),
            Err(CkptError::Corrupt { .. })
        ));
    }
}
