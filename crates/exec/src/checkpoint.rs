//! Progress records for chunked trial fan-outs.
//!
//! A [`ChunkManifest`] records which trial chunks of a
//! [`parallel_trial_chunks`](crate::parallel_trial_chunks)-style run have
//! completed, together with their outputs. Because every chunk's seeds
//! derive from `(experiment_seed, trial_index)` alone, a killed run that
//! reloads its manifest and runs only the missing chunks assembles an
//! output vector bit-identical to the uninterrupted run — at any thread
//! count, and no matter how the work was split across kills. The
//! campaign layer drives exactly that loop over its cell axis.
//!
//! The manifest is plain serde data: persist it with
//! [`ChunkManifest::to_json`] / [`ChunkManifest::from_json`] wherever
//! the caller wants. Loading validates the shape, so a corrupted file is
//! an error rather than a silently wrong result.

use crate::derive_seed;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Progress record of a chunked trial run: geometry plus the outputs of
/// every completed chunk, keyed by chunk index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkManifest<T> {
    experiment_seed: u64,
    trials: usize,
    chunk: usize,
    /// Completed chunk index → outputs in trial order.
    completed: BTreeMap<usize, Vec<T>>,
}

impl<T> ChunkManifest<T> {
    /// An empty manifest for a run of `trials` trials in chunks of
    /// `chunk` (clamped to ≥ 1), seeded with `experiment_seed`.
    #[must_use]
    pub fn new(experiment_seed: u64, trials: usize, chunk: usize) -> Self {
        ChunkManifest {
            experiment_seed,
            trials,
            chunk: chunk.max(1),
            completed: BTreeMap::new(),
        }
    }

    /// Total number of chunks in the run.
    #[must_use]
    pub fn total_chunks(&self) -> usize {
        self.trials.div_ceil(self.chunk)
    }

    /// Number of chunks already completed.
    #[must_use]
    pub fn completed_chunks(&self) -> usize {
        self.completed.len()
    }

    /// Whether every chunk has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.total_chunks()
    }

    /// Indices of the chunks still to run, ascending.
    #[must_use]
    pub fn remaining_chunks(&self) -> Vec<usize> {
        (0..self.total_chunks())
            .filter(|c| !self.completed.contains_key(c))
            .collect()
    }

    /// Completed chunks and their outputs, by ascending chunk index.
    pub fn completed(&self) -> impl Iterator<Item = (usize, &[T])> {
        self.completed.iter().map(|(&c, outputs)| (c, &outputs[..]))
    }

    /// The outputs of chunk `c`, if it has completed.
    #[must_use]
    pub fn chunk(&self, c: usize) -> Option<&[T]> {
        self.completed.get(&c).map(Vec::as_slice)
    }

    /// The trial-index range `[start, end)` of chunk `c`.
    fn chunk_range(&self, c: usize) -> (usize, usize) {
        let start = c * self.chunk;
        (start, (start + self.chunk).min(self.trials))
    }

    /// The derived seeds of chunk `c`, in trial order.
    #[must_use]
    pub fn chunk_seeds(&self, c: usize) -> Vec<u64> {
        let (start, end) = self.chunk_range(c);
        (start..end)
            .map(|i| derive_seed(self.experiment_seed, i as u64))
            .collect()
    }

    /// Records chunk `c` as completed with `outputs` (one per trial).
    ///
    /// # Panics
    ///
    /// Panics where [`try_record_chunk`](Self::try_record_chunk) errs:
    /// an out-of-range index, an arity mismatch, or a chunk recorded
    /// twice — all three indicate a resume against the wrong manifest.
    pub fn record_chunk(&mut self, c: usize, outputs: Vec<T>) {
        if let Err(message) = self.try_record_chunk(c, outputs) {
            panic!("{message}");
        }
    }

    /// [`record_chunk`](Self::record_chunk) for outputs that did not come
    /// from this run (ones decoded from disk): the same checks, as errors.
    ///
    /// # Errors
    ///
    /// The [`check_chunk`](Self::check_chunk) message, or one naming a
    /// chunk that is already recorded; the manifest is left unchanged.
    pub fn try_record_chunk(&mut self, c: usize, outputs: Vec<T>) -> Result<(), String> {
        self.check_chunk(c, outputs.len())?;
        match self.completed.entry(c) {
            Entry::Occupied(_) => Err(format!("chunk {c} is recorded twice")),
            Entry::Vacant(slot) => {
                slot.insert(outputs);
                Ok(())
            }
        }
    }

    /// Checks that chunk `c` is in range and that `outputs` is its
    /// trial count.
    ///
    /// # Errors
    ///
    /// A message naming the chunk, or a zero chunk size.
    pub fn check_chunk(&self, c: usize, outputs: usize) -> Result<(), String> {
        if self.chunk == 0 {
            return Err("manifest chunk size must be at least 1".to_owned());
        }
        let total = self.total_chunks();
        if c >= total {
            return Err(format!(
                "chunk {c} is out of range (the run has {total} chunks)"
            ));
        }
        let (start, end) = self.chunk_range(c);
        if outputs != end - start {
            return Err(format!(
                "chunk {c} holds {outputs} outputs, expected {}",
                end - start
            ));
        }
        Ok(())
    }

    /// Whether this manifest belongs to the run described by
    /// `(experiment_seed, trials, chunk)` — the resume-safety check a
    /// loader performs before trusting a manifest found on disk.
    #[must_use]
    pub fn matches(&self, experiment_seed: u64, trials: usize, chunk: usize) -> bool {
        self.experiment_seed == experiment_seed
            && self.trials == trials
            && self.chunk == chunk.max(1)
    }

    /// Assembles the full output vector in trial order.
    ///
    /// # Panics
    ///
    /// Panics unless the run [`is_complete`](Self::is_complete).
    #[must_use]
    pub fn into_outputs(self) -> Vec<T> {
        assert!(
            self.is_complete(),
            "cannot assemble outputs: {} of {} chunks missing",
            self.total_chunks() - self.completed.len(),
            self.total_chunks()
        );
        // BTreeMap iterates keys ascending, so concatenation is in
        // trial order by construction.
        self.completed.into_values().flatten().collect()
    }

    /// Checks the invariants [`record_chunk`](Self::record_chunk)
    /// enforces on a manifest that did not come through it (one loaded
    /// from disk): a non-zero chunk size, every key in range, and every
    /// chunk holding one output per trial.
    ///
    /// # Errors
    ///
    /// A message naming the first bad chunk.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk == 0 {
            return Err("manifest chunk size must be at least 1".to_owned());
        }
        self.completed
            .iter()
            .try_for_each(|(&c, outputs)| self.check_chunk(c, outputs.len()))
    }
}

impl<T: Serialize> ChunkManifest<T> {
    /// Serializes the manifest to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("manifest outputs must be serializable")
    }
}

impl<T: Deserialize> ChunkManifest<T> {
    /// Parses a manifest from JSON and validates its shape.
    ///
    /// # Errors
    ///
    /// The underlying parse error, a zero chunk size, a chunk index
    /// outside the run, or a chunk whose output count differs from its
    /// trial count — each message names the bad chunk.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let manifest: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        manifest.validate()?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_trial_chunks;

    fn task(start: usize, seeds: &[u64]) -> Vec<(usize, u64)> {
        seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| (start + k, seed ^ 0xC0FFEE))
            .collect()
    }

    /// Runs chunks `which` of `manifest`, recording each.
    fn run_chunks(manifest: &mut ChunkManifest<(usize, u64)>, which: &[usize]) {
        for &c in which {
            let (start, _) = manifest.chunk_range(c);
            let seeds = manifest.chunk_seeds(c);
            manifest.record_chunk(c, task(start, &seeds));
        }
    }

    #[test]
    fn killed_run_resumes_to_identical_outputs() {
        let reference = parallel_trial_chunks(0xDEAD, 50, 2, 7, task);
        // "Kill" after three chunks: only 0, 2, 5 completed.
        let mut manifest = ChunkManifest::new(0xDEAD, 50, 7);
        run_chunks(&mut manifest, &[0, 2, 5]);
        // Round-trip through JSON, as a real kill/restart would.
        let mut revived = ChunkManifest::from_json(&manifest.to_json()).unwrap();
        assert!(revived.matches(0xDEAD, 50, 7));
        assert!(!revived.matches(0xDEAD, 50, 8));
        assert!(!revived.is_complete());
        assert_eq!(revived.completed_chunks(), 3);
        let missing = revived.remaining_chunks();
        assert_eq!(missing, vec![1, 3, 4, 6, 7]);
        run_chunks(&mut revived, &missing);
        assert!(revived.is_complete());
        assert_eq!(revived.into_outputs(), reference);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_record_panics() {
        let mut manifest = ChunkManifest::new(0xC3, 8, 4);
        manifest.record_chunk(0, task(0, &manifest.chunk_seeds(0)));
        manifest.record_chunk(0, task(0, &manifest.chunk_seeds(0)));
    }

    #[test]
    #[should_panic(expected = "chunks missing")]
    fn assembling_an_incomplete_manifest_panics() {
        let manifest: ChunkManifest<u64> = ChunkManifest::new(0xD4, 8, 4);
        let _ = manifest.into_outputs();
    }
}
