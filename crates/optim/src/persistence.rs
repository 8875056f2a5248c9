//! Saving and resuming angle-finding progress.
//!
//! `find_angles` in the paper stores the results of every round in a user-defined file;
//! "if the angle-finding is interrupted for any reason, e.g. a server crash, it will load
//! any saved results and resume from the last calculated angles."  [`AngleProgress`] is
//! that file format: a map from round number `p` to the best flat angle vector and its
//! expectation value, serialised as JSON.

use juliqaoa_core::QaoaError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Wraps any load/save failure as [`QaoaError::Persistence`], capturing the path.
fn persistence_error(path: &Path, message: impl std::fmt::Display) -> QaoaError {
    QaoaError::Persistence {
        path: path.display().to_string(),
        message: message.to_string(),
    }
}

/// The best angles found for one round count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SavedAngles {
    /// Flat angle vector `[β_1…β_p, γ_1…γ_p]`.
    pub angles: Vec<f64>,
    /// The (maximised) expectation value those angles achieve.
    pub expectation: f64,
}

/// Accumulated progress of an iterative angle-finding run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AngleProgress {
    /// Best result per round count `p`.
    pub rounds: BTreeMap<usize, SavedAngles>,
}

impl AngleProgress {
    /// An empty progress record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or overwrites) the result for `p` rounds.
    pub fn record(&mut self, p: usize, angles: Vec<f64>, expectation: f64) {
        self.rounds.insert(
            p,
            SavedAngles {
                angles,
                expectation,
            },
        );
    }

    /// The saved result for `p` rounds, if any.
    pub fn get(&self, p: usize) -> Option<&SavedAngles> {
        self.rounds.get(&p)
    }

    /// Loads progress from a JSON file; a missing file yields empty progress.
    ///
    /// Unreadable or unparseable files surface as [`QaoaError::Persistence`] rather
    /// than panicking, so a service resuming hundreds of runs can report exactly which
    /// file is corrupt and carry on with the rest.
    pub fn load_or_default(path: impl AsRef<Path>) -> Result<Self, QaoaError> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok(Self::new());
        }
        let json = fs::read_to_string(path).map_err(|e| persistence_error(path, e))?;
        serde_json::from_str(&json).map_err(|e| persistence_error(path, e))
    }

    /// Saves progress to a JSON file, creating parent directories as needed.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), QaoaError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(|e| persistence_error(path, e))?;
            }
        }
        let json = serde_json::to_string_pretty(self).map_err(|e| persistence_error(path, e))?;
        fs::write(path, json).map_err(|e| persistence_error(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "juliqaoa_angles_{tag}_{}_{id}.json",
            std::process::id()
        ))
    }

    #[test]
    fn record_get_and_max_round() {
        let mut p = AngleProgress::new();
        p.record(1, vec![0.1, 0.2], 1.5);
        p.record(3, vec![0.1; 6], 2.5);
        p.record(2, vec![0.1; 4], 2.0);
        assert_eq!(p.get(2).unwrap().expectation, 2.0);
        assert!(p.get(4).is_none());
        // Overwriting replaces.
        p.record(1, vec![0.9, 0.9], 1.9);
        assert_eq!(p.get(1).unwrap().expectation, 1.9);
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = temp_path("roundtrip");
        let mut p = AngleProgress::new();
        p.record(1, vec![0.25, 1.5], 3.25);
        p.record(2, vec![0.1, 0.2, 0.3, 0.4], 4.5);
        p.save(&path).unwrap();
        let loaded = AngleProgress::load_or_default(&path).unwrap();
        assert_eq!(loaded, p);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_loads_as_empty() {
        let p = AngleProgress::load_or_default("/no/such/juliqaoa/file.json").unwrap();
        assert!(p.rounds.is_empty());
    }

    #[test]
    fn corrupt_file_is_a_persistence_error_naming_the_path() {
        let path = temp_path("corrupt");
        fs::write(&path, "not json at all").unwrap();
        let err = AngleProgress::load_or_default(&path).unwrap_err();
        match &err {
            QaoaError::Persistence { path: p, .. } => {
                assert!(p.contains("juliqaoa_angles_corrupt"))
            }
            other => panic!("expected Persistence error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unwritable_path_is_a_persistence_error() {
        let mut p = AngleProgress::new();
        p.record(1, vec![0.1, 0.2], 1.0);
        // `/proc` rejects directory creation, so `save` must error, not panic.
        let err = p
            .save("/proc/nonexistent/juliqaoa/progress.json")
            .unwrap_err();
        assert!(matches!(err, QaoaError::Persistence { .. }));
    }
}
