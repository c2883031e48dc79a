//! The ideal no-refresh arrangement (upper bound of Fig. 9a).

use super::{PolicyHandle, PolicyStats, RankView, RefreshAction, RefreshPolicy};

/// Performs no periodic refresh at all. The retention model in `hira-dram`
/// says what that would cost in data integrity; here it is the
/// interference-free performance bound every figure normalizes against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRefresh;

impl RefreshPolicy for NoRefresh {
    fn name(&self) -> &str {
        "noref"
    }

    fn next_action(&mut self, _now_ns: f64, _view: &RankView<'_>) -> Option<RefreshAction> {
        None
    }

    fn next_wake(&self, _now_ns: f64, _view: &RankView<'_>) -> f64 {
        f64::INFINITY
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

/// Handle for the registry key `noref`.
pub fn noref() -> PolicyHandle {
    PolicyHandle::new("noref", |_env| Box::new(NoRefresh))
        .with_summary("no periodic refresh — the Fig. 9a ideal upper bound")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::{view, IDLE};

    #[test]
    fn noref_is_inert_and_refresh_free() {
        let mut p = NoRefresh;
        let view = view(0, &[IDLE; 4], &[0; 4]);
        assert_eq!(p.next_wake(0.0, &view), f64::INFINITY);
        assert_eq!(p.next_action(0.0, &view), None);
        assert_eq!(p.stats(), PolicyStats::default());
    }
}
