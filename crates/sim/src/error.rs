//! Typed simulation errors.
//!
//! The day loop's prepared scripts rely on a coverage contract: the day's
//! pre-pass must visit every plan the day's batches will execute. A gap is
//! a caller bug, but it should fail loudly with the missing key — not panic
//! mid-batch where the unwind obscures which plan was uncovered.

/// A simulation-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A plan referenced a campaign variant the day pre-pass never prepared.
    MissingPreparedScript {
        /// Campaign id (`CampaignId.0`).
        campaign: u32,
        /// Variant active on the plan's day.
        variant: u32,
    },
    /// A plan referenced a recon template the day pre-pass never prepared.
    MissingPreparedRecon {
        /// Recon cache key (`variant ^ (seed % 8)`).
        key: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MissingPreparedScript { campaign, variant } => write!(
                f,
                "day pre-pass did not prepare campaign {campaign} variant {variant} \
                 (prepare_day must cover every plan executed)"
            ),
            SimError::MissingPreparedRecon { key } => write!(
                f,
                "day pre-pass did not prepare recon template {key} \
                 (prepare_day must cover every plan executed)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_missing_key() {
        let e = SimError::MissingPreparedScript {
            campaign: 7,
            variant: 2,
        };
        let s = e.to_string();
        assert!(s.contains("campaign 7"));
        assert!(s.contains("variant 2"));
        let r = SimError::MissingPreparedRecon { key: 11 }.to_string();
        assert!(r.contains("11"));
    }
}
