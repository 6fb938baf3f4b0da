use miopt_engine::Cycle;

/// Outcome of presenting an access to a bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOutcome {
    /// The target row is already open.
    Hit,
    /// The bank had no open row; an activate was required.
    Closed,
    /// A different row was open; precharge + activate were required.
    Conflict,
}

/// One DRAM bank: an open-row register plus timing state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bank {
    open_row: Option<u64>,
    /// When the currently open row becomes usable (activate finished).
    row_ready_at: Cycle,
    /// When the last data transfer from this bank ends (precharge cannot
    /// start earlier).
    last_data_end: Cycle,
}

impl Bank {
    pub(crate) fn new() -> Bank {
        Bank {
            open_row: None,
            row_ready_at: Cycle::ZERO,
            last_data_end: Cycle::ZERO,
        }
    }

    /// The row currently open (or being activated), if any.
    pub(crate) fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// When the current row (if any) finishes activating.
    pub(crate) fn row_ready_at(&self) -> Cycle {
        self.row_ready_at
    }

    /// Whether an access to `row` at `now` would be a row hit that can
    /// start immediately (used by the reference FR-FCFS first-ready scan).
    #[cfg(test)]
    pub(crate) fn is_ready_hit(&self, row: u64, now: Cycle) -> bool {
        self.open_row == Some(row) && self.row_ready_at <= now
    }

    /// Performs the row-buffer state transition for an access to `row`
    /// issued at `now`, returning the outcome and the cycle at which column
    /// data movement may start.
    pub(crate) fn access(
        &mut self,
        row: u64,
        now: Cycle,
        t_activate: u64,
        t_precharge: u64,
    ) -> (RowOutcome, Cycle) {
        match self.open_row {
            Some(open) if open == row => {
                let start = now.max(self.row_ready_at);
                (RowOutcome::Hit, start)
            }
            Some(_) => {
                // Precharge may begin only after the bank's previous data
                // transfer finished and the previous activate completed.
                let precharge_start = now.max(self.row_ready_at).max(self.last_data_end);
                let ready = precharge_start + t_precharge + t_activate;
                self.open_row = Some(row);
                self.row_ready_at = ready;
                (RowOutcome::Conflict, ready)
            }
            None => {
                let ready = now.max(self.row_ready_at) + t_activate;
                self.open_row = Some(row);
                self.row_ready_at = ready;
                (RowOutcome::Closed, ready)
            }
        }
    }

    /// Records the end of a data transfer from this bank.
    pub(crate) fn note_data_end(&mut self, end: Cycle) {
        if end > self.last_data_end {
            self.last_data_end = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_closed_miss() {
        let mut b = Bank::new();
        let (outcome, start) = b.access(5, Cycle(100), 10, 10);
        assert_eq!(outcome, RowOutcome::Closed);
        assert_eq!(start, Cycle(110));
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn same_row_hits_immediately_after_activate() {
        let mut b = Bank::new();
        b.access(5, Cycle(0), 10, 10);
        let (outcome, start) = b.access(5, Cycle(20), 10, 10);
        assert_eq!(outcome, RowOutcome::Hit);
        assert_eq!(start, Cycle(20));
    }

    #[test]
    fn hit_before_activate_completes_waits() {
        let mut b = Bank::new();
        b.access(5, Cycle(0), 10, 10); // row ready at 10
        let (outcome, start) = b.access(5, Cycle(3), 10, 10);
        assert_eq!(outcome, RowOutcome::Hit);
        assert_eq!(start, Cycle(10));
    }

    #[test]
    fn different_row_conflicts_and_pays_precharge() {
        let mut b = Bank::new();
        b.access(5, Cycle(0), 10, 10); // ready at 10
        b.note_data_end(Cycle(15));
        let (outcome, start) = b.access(6, Cycle(12), 10, 10);
        assert_eq!(outcome, RowOutcome::Conflict);
        // precharge starts at max(12, 10, 15) = 15, + 10 + 10
        assert_eq!(start, Cycle(35));
        assert_eq!(b.open_row(), Some(6));
    }

    #[test]
    fn ready_hit_detection() {
        let mut b = Bank::new();
        assert!(!b.is_ready_hit(5, Cycle(0)));
        b.access(5, Cycle(0), 10, 10);
        assert!(!b.is_ready_hit(5, Cycle(5))); // activating
        assert!(b.is_ready_hit(5, Cycle(10)));
        assert!(!b.is_ready_hit(6, Cycle(10)));
    }
}
