//! Answer checking. Every query's result is reduced to a digest of its
//! sorted `(id, score bits)` pairs; on the warm-up pass each workload's
//! digest for each query must equal the heap engine's, which is in turn
//! checked against a full scan.

use crate::sut::View;
use std::path::Path;

/// One query's answer: digest of the sorted hits, and how many there were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Answer {
    pub(crate) digest: u64,
    pub(crate) matches: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

impl Answer {
    /// Stands for an operation that returned an error or stopped early;
    /// equal to no real answer.
    pub(crate) const FAILED: Answer = Answer {
        digest: 0,
        matches: u32::MAX,
    };

    pub(crate) fn of(view: &View<'_>) -> Answer {
        if !view.complete {
            return Answer::FAILED;
        }
        let mut hits = view.matches.hits();
        hits.sort_unstable();
        let digest = hits
            .iter()
            .fold(FNV_OFFSET, |h, (id, score)| fnv1a(fnv1a(h, *id), *score));
        Answer {
            digest,
            matches: u32::try_from(hits.len()).unwrap_or(u32::MAX - 1),
        }
    }
}

/// One digest for a whole stream of answers.
pub(crate) fn fold(answers: &[Answer]) -> u64 {
    answers.iter().fold(FNV_OFFSET, |h, a| {
        fnv1a(fnv1a(h, a.digest), u64::from(a.matches))
    })
}

/// How many of `got` differ from the reference (a missing one differs).
pub(crate) fn mismatches(got: &[Answer], want: &[Answer]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().saturating_sub(want.len())) as u64
}

pub(crate) fn write_answers(path: &Path, answers: &[Answer]) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(answers.len() * 12);
    for a in answers {
        bytes.extend_from_slice(&a.digest.to_le_bytes());
        bytes.extend_from_slice(&a.matches.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn read_answers(path: &Path) -> Result<Vec<Answer>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.len() % 12 != 0 {
        return Err(format!("{}: truncated answer file", path.display()));
    }
    Ok(bytes
        .chunks_exact(12)
        .map(|c| Answer {
            digest: u64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
            matches: u32::from_le_bytes(c[8..].try_into().expect("4 bytes")),
        })
        .collect())
}
