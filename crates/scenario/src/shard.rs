//! Distributed campaign sharding: run a deterministic stripe of a
//! campaign's expanded job list on one host, then merge the shard
//! artifacts back into the exact single-host campaign artifact.
//!
//! A shard `i/n` owns every job whose index is congruent to `i` modulo
//! `n` over the stably-ordered expansion — so the stripes partition the
//! job list exactly (disjoint, complete, order-preserving) and every job
//! keeps the per-job seed the unsharded run would derive
//! ([`crate::campaign::derive_job_seed`] depends only on the campaign
//! seed, the axis seed, and the job index, none of which sharding
//! changes). [`crate::runner::run_campaign_with`] given a [`Shard`] runs
//! that stripe: it journals to its own
//! `CAMPAIGN_<name>.shard-i-of-n.manifest.jsonl` (same kill/resume
//! guarantees as a whole run; the header additionally binds the shard
//! coordinates) and emits a `hotnoc-campaign-shard-v1` artifact on
//! completion.
//!
//! [`merge_shards`] validates a shard set — same campaign fingerprint,
//! complete `0..n` cover, no duplicates — and reassembles the records in
//! canonical job order. Because [`crate::runner::campaign_json`] and
//! [`crate::stats::aggregate_json`] are pure functions of the spec plus
//! the index-ordered records, the merged `CAMPAIGN_<name>.json` and
//! `.aggregate.json` are byte-identical to a single-host whole run.

use crate::campaign::CampaignSpec;
use crate::json::Json;
use crate::runner::{validate_artifact_header, validate_records, JobRecord};
use std::fmt;

/// Schema tag of the `CAMPAIGN_<name>.shard-i-of-n.json` artifact.
pub const SHARD_SCHEMA: &str = "hotnoc-campaign-shard-v1";

/// Shard coordinates: this run owns stripe `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which stripe (0-based, `< count`).
    pub index: usize,
    /// Total number of stripes (>= 1).
    pub count: usize,
}

impl Shard {
    /// Builds validated shard coordinates.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: usize, count: usize) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be >= 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range (count {count})"));
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI form `i/n` (e.g. `0/3`).
    ///
    /// # Errors
    ///
    /// Rejects anything that is not two decimal integers separated by one
    /// `/`, or coordinates [`Shard::new`] rejects.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let bad = || format!("bad shard {text:?} (want i/n, e.g. 0/3)");
        let (i, n) = text.split_once('/').ok_or_else(bad)?;
        let index: usize = i.parse().map_err(|_| bad())?;
        let count: usize = n.parse().map_err(|_| bad())?;
        Shard::new(index, count)
    }

    /// The artifact/manifest filename tag, e.g. `shard-0-of-3`.
    pub fn file_tag(&self) -> String {
        format!("shard-{}-of-{}", self.index, self.count)
    }

    /// The job indices this shard owns out of a `total`-job expansion:
    /// every index congruent to `self.index` modulo `self.count`, in
    /// ascending order. Stripes over the same `total` partition
    /// `0..total` exactly; a stripe may be empty when `count > total`.
    pub fn stripe(&self, total: usize) -> Vec<usize> {
        (self.index..total).step_by(self.count).collect()
    }

    /// The `{"index": i, "count": n}` JSON form embedded in manifests and
    /// shard artifacts.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("index", Json::int(self.index as u64)),
            ("count", Json::int(self.count as u64)),
        ])
    }

    /// Decodes [`Shard::to_json`].
    ///
    /// # Errors
    ///
    /// Rejects missing/non-integer fields and invalid coordinates.
    pub fn from_json(j: &Json) -> Result<Shard, String> {
        Shard::new(j.req_u64("index")? as usize, j.req_u64("count")? as usize)
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A parsed-and-validated shard artifact.
#[derive(Debug)]
pub struct ShardDoc {
    /// The embedded campaign spec.
    pub spec: CampaignSpec,
    /// Which stripe this artifact covers.
    pub shard: Shard,
    /// Jobs in the whole campaign expansion.
    pub total_jobs: usize,
    /// The stripe's completed jobs, in (global) index order.
    pub records: Vec<JobRecord>,
}

/// Strictly parses and cross-validates a shard artifact: schema tag,
/// fingerprint consistency with the embedded spec, shard coordinates,
/// and that the results cover the shard's stripe exactly, in order, with
/// each record's spec matching the campaign expansion.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn parse_shard_document(text: &str) -> Result<ShardDoc, String> {
    validate_shard_json(&Json::parse(text)?)
}

/// [`parse_shard_document`] over an already-parsed document.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_shard_json(j: &Json) -> Result<ShardDoc, String> {
    let spec = validate_artifact_header(j, SHARD_SCHEMA)?;
    let shard = Shard::from_json(j.req("shard")?)?;
    let jobs = spec.expand();
    if j.req_u64("total_jobs")? as usize != jobs.len() {
        return Err(format!(
            "total_jobs field says {} but the campaign expands to {} jobs",
            j.req_u64("total_jobs")?,
            jobs.len()
        ));
    }
    let records = validate_records(j, &jobs, &shard.stripe(jobs.len()), Some(shard))?;
    Ok(ShardDoc {
        spec,
        shard,
        total_jobs: jobs.len(),
        records,
    })
}

/// A complete campaign reassembled from a validated shard set. Feed
/// `records` to [`crate::runner::campaign_json`] and
/// [`crate::stats::aggregate`] — the outputs are byte-identical to a
/// single-host whole run.
#[derive(Debug)]
pub struct MergedCampaign {
    /// The campaign spec (identical across the shard set).
    pub spec: CampaignSpec,
    /// All job records in canonical (index) order.
    pub records: Vec<JobRecord>,
}

/// Validates a shard set and reassembles the whole campaign: every shard
/// must name the same campaign with the same fingerprint and shard
/// count, and together they must cover stripes `0..n` exactly once.
///
/// # Errors
///
/// Returns a human-readable description of the first violation — a
/// duplicate stripe, a missing stripe, or a campaign/fingerprint/count
/// mismatch.
pub fn merge_shards(docs: Vec<ShardDoc>) -> Result<MergedCampaign, String> {
    let Some(first) = docs.first() else {
        return Err("no shards to merge".into());
    };
    let spec = first.spec.clone();
    let name = spec.name.clone();
    let fingerprint = spec.fingerprint();
    let count = first.shard.count;
    for d in &docs {
        if d.spec.name != name {
            return Err(format!(
                "shard set mixes campaigns {name:?} and {:?}",
                d.spec.name
            ));
        }
        if d.spec.fingerprint() != fingerprint {
            return Err(format!(
                "fingerprint mismatch: shard {} was run against a different {name:?} spec \
                 ({} vs {fingerprint})",
                d.shard,
                d.spec.fingerprint()
            ));
        }
        if d.shard.count != count {
            return Err(format!(
                "shard count mismatch: {} vs {}/{count}",
                d.shard, d.shard.index
            ));
        }
    }
    let mut seen: Vec<Option<&ShardDoc>> = vec![None; count];
    for d in &docs {
        if seen[d.shard.index].is_some() {
            return Err(format!("duplicate shard {}", d.shard));
        }
        seen[d.shard.index] = Some(d);
    }
    if let Some(missing) = seen.iter().position(Option::is_none) {
        return Err(format!("missing shard {missing}/{count}"));
    }

    let total = first.total_jobs;
    let mut slots: Vec<Option<JobRecord>> = vec![None; total];
    for d in docs {
        for r in d.records {
            let index = r.index;
            slots[index] = Some(r);
        }
    }
    // Validated shards cover disjoint stripes that partition 0..total,
    // so every slot is filled.
    let records: Vec<JobRecord> = slots
        .into_iter()
        .map(|s| s.expect("stripe partition covers every job"))
        .collect();
    Ok(MergedCampaign { spec, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PolicyAxis;
    use crate::error::ScenarioError;
    use crate::runner::{
        campaign_json, run_campaign, run_campaign_with, CampaignRun, RunnerOptions,
    };
    use crate::spec::{ChipKind, Mode, Workload};
    use crate::stats::{aggregate, aggregate_json};
    use hotnoc_core::configs::{ChipConfigId, Fidelity};
    use hotnoc_noc::TrafficPattern;
    use std::path::PathBuf;

    fn tiny_campaign(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            seed: 7,
            fidelity: Fidelity::Quick,
            mode: Mode::Cosim,
            sim_time_ms: None,
            configs: vec![ChipKind::Config(ChipConfigId::A)],
            workloads: vec![
                Workload::Traffic {
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.05,
                    packet_len: 2,
                    cycles: 200,
                },
                Workload::Traffic {
                    pattern: TrafficPattern::Transpose,
                    rate: 0.05,
                    packet_len: 2,
                    cycles: 200,
                },
            ],
            policies: vec![PolicyAxis::Baseline],
            schemes: vec![],
            periods: vec![],
            offered_loads: vec![],
            failed_routers: vec![],
            failed_links: vec![],
            seeds: vec![1, 2, 3],
        }
    }

    fn run_shard(
        spec: &CampaignSpec,
        shard: Shard,
        opts: &RunnerOptions,
    ) -> Result<CampaignRun, ScenarioError> {
        run_campaign_with(spec, Some(shard), opts, &minipool::ThreadPool::new())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hotnoc-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_parse_accepts_valid_rejects_invalid() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard { index: 0, count: 3 });
        assert_eq!(Shard::parse("2/3").unwrap(), Shard { index: 2, count: 3 });
        assert_eq!(Shard::parse("0/1").unwrap(), Shard { index: 0, count: 1 });
        for bad in ["3/3", "0/0", "banana", "1", "1/2/3", "-1/3", "a/b", ""] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(Shard::parse("1/4").unwrap().to_string(), "1/4");
        assert_eq!(Shard::parse("1/4").unwrap().file_tag(), "shard-1-of-4");
    }

    #[test]
    fn stripes_partition_and_survive_json_roundtrip() {
        for total in [0usize, 1, 5, 6, 7, 12] {
            for count in 1usize..=8 {
                let mut cover = vec![false; total];
                for index in 0..count {
                    let shard = Shard::new(index, count).unwrap();
                    let stripe = shard.stripe(total);
                    assert!(stripe.windows(2).all(|w| w[0] < w[1]), "ascending");
                    for &i in &stripe {
                        assert_eq!(i % count, index);
                        assert!(!cover[i], "job {i} claimed twice");
                        cover[i] = true;
                    }
                    let back = Shard::from_json(&shard.to_json()).unwrap();
                    assert_eq!(back, shard);
                }
                assert!(cover.iter().all(|&c| c), "total {total} count {count}");
            }
        }
    }

    #[test]
    fn merged_shards_reproduce_whole_run_bytes() {
        // Whole run: the reference bytes.
        let spec = tiny_campaign("unit-shard-merge");
        let whole_dir = tmp_dir("whole");
        let whole = run_campaign(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: whole_dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("whole run");
        let whole_campaign =
            std::fs::read_to_string(whole.json_path.as_ref().expect("complete")).unwrap();
        let whole_aggregate =
            std::fs::read_to_string(whole.aggregate_path.as_ref().expect("complete")).unwrap();

        // Three shards: shard 1 is interrupted after one job, resumed at a
        // different thread count; shard 2 runs single-threaded.
        let shard_dir = tmp_dir("stripes");
        let mut docs = Vec::new();
        for index in 0..3 {
            let shard = Shard::new(index, 3).unwrap();
            let mut opts = RunnerOptions {
                threads: if index == 2 { 1 } else { 4 },
                out_dir: shard_dir.clone(),
                ..RunnerOptions::default()
            };
            if index == 1 {
                opts.max_jobs = Some(1);
                let partial = run_shard(&spec, shard, &opts).expect("partial shard");
                assert!(!partial.is_complete());
                assert!(partial.json_path.is_none());
                opts.max_jobs = None;
                opts.threads = 2;
            }
            let run = run_shard(&spec, shard, &opts).expect("shard run");
            assert!(run.is_complete());
            if index == 1 {
                assert_eq!(run.resumed_jobs, 1);
            }
            let text = std::fs::read_to_string(run.json_path.as_ref().expect("artifact")).unwrap();
            docs.push(parse_shard_document(&text).expect("validates"));
        }

        let merged = merge_shards(docs).expect("merges");
        assert_eq!(campaign_json(&merged.spec, &merged.records), whole_campaign);
        assert_eq!(
            aggregate_json(&merged.spec, &aggregate(&merged.records)),
            whole_aggregate
        );
        let _ = std::fs::remove_dir_all(&whole_dir);
        let _ = std::fs::remove_dir_all(&shard_dir);
    }

    #[test]
    fn empty_stripe_shard_completes_with_zero_jobs() {
        // 6 jobs, 8 shards: shards 6/8 and 7/8 own nothing but are still
        // legal (and required for merge cover).
        let spec = tiny_campaign("unit-shard-empty");
        let dir = tmp_dir("empty");
        let run = run_shard(
            &spec,
            Shard::new(7, 8).unwrap(),
            &RunnerOptions {
                threads: 1,
                out_dir: dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("runs");
        assert!(run.is_complete());
        assert_eq!(run.total_jobs, 0);
        let text = std::fs::read_to_string(run.json_path.as_ref().expect("artifact")).unwrap();
        let doc = parse_shard_document(&text).expect("validates");
        assert!(doc.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_bad_shard_sets() {
        let spec = tiny_campaign("unit-shard-reject");
        let dir = tmp_dir("reject");
        let mut docs = Vec::new();
        for index in 0..2 {
            let run = run_shard(
                &spec,
                Shard::new(index, 2).unwrap(),
                &RunnerOptions {
                    threads: 1,
                    out_dir: dir.clone(),
                    ..RunnerOptions::default()
                },
            )
            .expect("runs");
            docs.push(std::fs::read_to_string(run.json_path.as_ref().expect("artifact")).unwrap());
        }
        let parse = |t: &String| parse_shard_document(t).expect("validates");

        let err = merge_shards(vec![]).unwrap_err();
        assert!(err.contains("no shards"), "{err}");

        let err = merge_shards(vec![parse(&docs[0])]).unwrap_err();
        assert!(err.contains("missing shard 1/2"), "{err}");

        let err = merge_shards(vec![parse(&docs[0]), parse(&docs[0])]).unwrap_err();
        assert!(err.contains("duplicate shard 0/2"), "{err}");

        // A same-name spec with different axes: fingerprint mismatch.
        let mut other = tiny_campaign("unit-shard-reject");
        other.seeds = vec![1, 2];
        let other_dir = tmp_dir("reject-other");
        let other_run = run_shard(
            &other,
            Shard::new(1, 2).unwrap(),
            &RunnerOptions {
                threads: 1,
                out_dir: other_dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("runs");
        let other_text =
            std::fs::read_to_string(other_run.json_path.as_ref().expect("artifact")).unwrap();
        let err = merge_shards(vec![parse(&docs[0]), parse(&other_text)]).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");

        let ok = merge_shards(vec![parse(&docs[1]), parse(&docs[0])]).expect("order-insensitive");
        assert_eq!(ok.records.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other_dir);
    }

    #[test]
    fn shard_and_whole_manifests_do_not_cross_resume() {
        // A whole-run journal must not satisfy a shard resume: the header
        // includes the shard coordinates, so the shard starts fresh.
        let spec = tiny_campaign("unit-shard-isolate");
        let dir = tmp_dir("isolate");
        let opts = RunnerOptions {
            threads: 1,
            out_dir: dir.clone(),
            ..RunnerOptions::default()
        };
        run_campaign(&spec, &opts).expect("whole run");
        // Copy the whole-run journal over the shard journal path.
        let whole_manifest = dir.join("CAMPAIGN_unit-shard-isolate.manifest.jsonl");
        let shard_manifest = dir.join("CAMPAIGN_unit-shard-isolate.shard-0-of-2.manifest.jsonl");
        std::fs::copy(&whole_manifest, &shard_manifest).unwrap();
        let run = run_shard(&spec, Shard::new(0, 2).unwrap(), &opts).expect("shard run");
        assert_eq!(run.resumed_jobs, 0, "whole-run journal must be ignored");
        assert_eq!(run.executed_jobs, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
