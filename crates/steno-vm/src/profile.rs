//! Per-query execution profiles.
//!
//! A [`QueryProfile`] answers "where did the elements and the time go"
//! for one run of a compiled query: how many scalar instructions
//! dispatched, how many source elements each tier consumed, how dense
//! the vectorized tier's selection vectors stayed, and whether the
//! query text hit the [`crate::query::QueryCache`]. Collection is
//! opt-in: the profiled interpreter is a separate monomorphization
//! (`run_impl::<true>` in [`crate::exec`]), so the default scalar path
//! compiles every counter out. The vectorized tier runs the same
//! kernels either way and pays one `Option` check per 1024-element
//! batch for its counters.

use std::time::Duration;

/// Execution counters for one run of a compiled query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    /// Scalar instructions dispatched (each `BatchLoop` counts once
    /// here; its per-element work is tracked below).
    pub scalar_instrs: u64,
    /// Elements read from prepared sources by scalar `SrcGet*`.
    pub src_reads: u64,
    /// User-defined function invocations.
    pub udf_calls: u64,
    /// Elements pushed into sinks (buffers, groups, sort, distinct).
    pub sink_pushes: u64,
    /// Elements appended to the output sequence.
    pub out_elements: u64,
    /// `BatchLoop` instructions executed.
    pub batch_loops: u64,
    /// Column batches processed by the vectorized tier.
    pub batches: u64,
    /// Source elements entering the vectorized tier.
    pub batch_elements_in: u64,
    /// Elements still selected after each batch's predicates ran.
    pub batch_elements_selected: u64,
    /// Wall time spent inside `BatchLoop` bodies, nanoseconds. Zero
    /// when the query ran purely scalar, in which case
    /// [`QueryProfile::wall`] is the loop time.
    pub loop_ns: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Whether compilation was served from the `QueryCache` (`None`
    /// when the query was compiled directly, without a cache).
    pub cache_hit: Option<bool>,
}

impl QueryProfile {
    /// Counts one vectorized batch of `len` elements, `selected` of which
    /// survived its predicates.
    pub(crate) fn count_batch(&mut self, len: usize, selected: usize) {
        self.batches += 1;
        self.batch_elements_in += len as u64;
        self.batch_elements_selected += selected as u64;
    }

    /// Fraction of batch elements surviving predicate evaluation, in
    /// `[0, 1]`; `None` when the vectorized tier did not run.
    pub fn selection_density(&self) -> Option<f64> {
        (self.batch_elements_in > 0)
            .then(|| self.batch_elements_selected as f64 / self.batch_elements_in as f64)
    }

    /// Renders the profile as stable JSON (field order fixed, wall time
    /// in nanoseconds).
    pub fn to_json(&self) -> String {
        let density = self
            .selection_density()
            .map_or("null".to_string(), |d| format!("{d:.4}"));
        let cache_hit = match self.cache_hit {
            None => "null",
            Some(true) => "true",
            Some(false) => "false",
        };
        format!(
            "{{\"scalar_instrs\": {}, \"src_reads\": {}, \"udf_calls\": {}, \
             \"sink_pushes\": {}, \"out_elements\": {}, \"batch_loops\": {}, \
             \"batches\": {}, \"batch_elements_in\": {}, \"batch_elements_selected\": {}, \
             \"selection_density\": {}, \"loop_ns\": {}, \"wall_ns\": {}, \"cache_hit\": {}}}",
            self.scalar_instrs,
            self.src_reads,
            self.udf_calls,
            self.sink_pushes,
            self.out_elements,
            self.batch_loops,
            self.batches,
            self.batch_elements_in,
            self.batch_elements_selected,
            density,
            self.loop_ns,
            self.wall.as_nanos(),
            cache_hit,
        )
    }
}

impl std::fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "profile: {} scalar instrs, {} src reads, {} udf calls, {} sink pushes, {} out",
            self.scalar_instrs, self.src_reads, self.udf_calls, self.sink_pushes, self.out_elements
        )?;
        if self.batch_loops > 0 {
            let density = self.selection_density().unwrap_or(0.0);
            writeln!(
                f,
                "  vectorized: {} loop(s), {} batch(es), {} elements in, {} selected (density {:.2})",
                self.batch_loops,
                self.batches,
                self.batch_elements_in,
                self.batch_elements_selected,
                density
            )?;
        }
        write!(f, "  wall: {:?}", self.wall)?;
        if let Some(hit) = self.cache_hit {
            write!(f, ", cache {}", if hit { "hit" } else { "miss" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_density_handles_empty_and_partial() {
        let mut p = QueryProfile::default();
        assert_eq!(p.selection_density(), None);
        p.batch_elements_in = 100;
        p.batch_elements_selected = 25;
        assert_eq!(p.selection_density(), Some(0.25));
    }

    #[test]
    fn json_is_well_formed() {
        let p = QueryProfile {
            scalar_instrs: 10,
            batch_elements_in: 4,
            batch_elements_selected: 2,
            cache_hit: Some(true),
            ..QueryProfile::default()
        };
        let js = p.to_json();
        assert!(js.contains("\"selection_density\": 0.5000"), "{js}");
        assert!(js.contains("\"cache_hit\": true"), "{js}");
        // Display mentions the headline counters.
        assert!(p.to_string().contains("10 scalar instrs"));
    }
}
