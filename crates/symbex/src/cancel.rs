//! Cooperative cancellation for long-running symbolic work.
//!
//! A [`CancelToken`] is a cheap, cloneable handle onto one shared flag that
//! exploration and solver loops poll between iterations. Every clone
//! observes the same flag, so a coordinator can stop a worker's in-flight
//! job (a shard whose sibling found a violation, a steal request) without
//! tracking the job's internals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh token (not cancelled).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Cancel this token and every clone of it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once this token (or any clone of it) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_are_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_cancellation() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }
}
