//! In-process replay of the seeded request sequence through each layer's
//! public functions, in the order the daemon calls them: JSON body
//! parse, XPath parse, plan-cache lookup (translate, compile and certify
//! on a miss), accessibility-view lookup, plan execution and answer
//! serialization. With a [`Tracer`] every call gets a span; without one
//! only the whole request is timed, which is the untraced baseline for
//! `trace.overhead_ratio`.
//!
//! On a plan-cache miss the traced pass also repeats the miss's
//! translation step by step — rewrite, optimize, compile, certify —
//! outside the request's span, because the engine performs them inside
//! one call.

use crate::client::answers_slice;
use crate::trace::Tracer;
use crate::workload::Workload;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;
use sxv_core::{
    certify, certify_context, dtd_cost_model, optimize, rewrite, AccessSpec, Approach,
    CertifyContext, CostModel, PlanPolicy, SecureEngine, SecurityView,
};
use sxv_serve::json::Json;
use sxv_xml::{json_escape, DocIndex, Document};
use sxv_xpath::{compile, compile_annotate, simplify, EvalStats};

/// The plan policy `sxv serve` answers every query with
/// (`crates/serve/src/lib.rs`, `execute`). The replay must use the same
/// one, or its per-layer figures describe other plans than the served
/// ones. The traced run checks the replay's plan-cache hits, misses,
/// adaptive recompiles and fused scans against the daemon's `/stats` and
/// fails if they disagree; a policy change that leaves all four equal
/// goes unnoticed.
pub const SERVE_POLICY: PlanPolicy = PlanPolicy::ForceWalk;

/// Totals the daemon also reports in `GET /stats`: plan-cache hits,
/// misses and adaptive recompiles summed over the role engines, and fused
/// scan operators summed over the plans of every answered request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServedTotals {
    pub hits: u64,
    pub misses: u64,
    pub recompiled: u64,
    pub fused_ops: u64,
}

/// Counters over the first requests of a traced pass.
#[derive(Default)]
pub struct Counts {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    /// Misses on a key this pass had compiled before (evicted since).
    pub recompiles: u64,
    pub plans_compiled: u64,
    pub plans_recompiled: u64,
    /// The daemon-visible totals at the end of the prefix.
    pub served: ServedTotals,
    pub eval: EvalStats,
    pub rows: u64,
    pub bytes: u64,
}

pub struct Replay<'a> {
    wl: &'a Workload,
    docs: &'a [Document],
    indexes: &'a [DocIndex],
    specs: &'a [AccessSpec],
    views: &'a [SecurityView],
    bodies: &'a [String],
    expected: &'a [Vec<u8>],
    costs: Vec<CostModel>,
    certctx: Vec<CertifyContext>,
    engines: Vec<SecureEngine<'a>>,
    role_index: BTreeMap<&'a str, usize>,
    doc_index: BTreeMap<&'a str, usize>,
    compiled_keys: HashSet<(usize, String, Approach)>,
    /// Fused scan operators over the plans of every replayed request.
    fused_ops: u64,
    /// Executor time per `<label>-<approach>` class, in µs.
    pub exec_us: BTreeMap<String, Vec<f64>>,
    /// Replayed answers that differ from the expected ones.
    pub mismatches: u64,
}

fn approach_of(name: &str) -> Option<Approach> {
    match name {
        "rewrite" => Some(Approach::Rewrite),
        "optimize" => Some(Approach::Optimize),
        "annotate" => Some(Approach::Annotate),
        _ => None,
    }
}

/// Spans of one request; a no-op without a tracer.
struct Spans<'t> {
    tracer: Option<&'t mut Tracer>,
    request: u32,
}

impl Spans<'_> {
    fn begin(&mut self, name: &'static str) -> u32 {
        self.tracer.as_mut().map_or(0, |t| t.begin(name, self.request))
    }

    fn end(&mut self, id: u32) {
        if let Some(t) = self.tracer.as_mut() {
            t.end(id);
        }
    }
}

impl<'a> Replay<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        wl: &'a Workload,
        docs: &'a [Document],
        indexes: &'a [DocIndex],
        specs: &'a [AccessSpec],
        views: &'a [SecurityView],
        access: &[(usize, usize, std::sync::Arc<sxv_xpath::AccessView>)],
        bodies: &'a [String],
        expected: &'a [Vec<u8>],
    ) -> Replay<'a> {
        let engines: Vec<SecureEngine<'a>> =
            specs.iter().zip(views).map(|(s, v)| SecureEngine::new(s, v)).collect();
        for (role, doc, view) in access {
            engines[*role].preload_access_view(docs[*doc].doc_id(), view.clone());
        }
        Replay {
            wl,
            docs,
            indexes,
            specs,
            views,
            bodies,
            expected,
            costs: specs.iter().map(|s| dtd_cost_model(s.dtd(), true)).collect(),
            certctx: specs.iter().zip(views).map(|(s, v)| certify_context(s, v)).collect(),
            engines,
            role_index: wl.roles.iter().enumerate().map(|(i, r)| (r.name, i)).collect(),
            doc_index: wl.docs.iter().enumerate().map(|(i, d)| (d.name, i)).collect(),
            compiled_keys: HashSet::new(),
            fused_ops: 0,
            exec_us: BTreeMap::new(),
            mismatches: 0,
        }
    }

    pub fn plans_compiled(&self) -> u64 {
        self.engines.iter().map(|e| e.cache_stats().plans_compiled).sum()
    }

    /// Adaptive recompiles of cached plans (the engine's own counter).
    pub fn plans_recompiled(&self) -> u64 {
        self.engines.iter().map(|e| e.cache_stats().plans_recompiled).sum()
    }

    /// What the daemon would report after serving the same requests.
    pub fn served_totals(&self) -> ServedTotals {
        let mut t = ServedTotals { fused_ops: self.fused_ops, ..ServedTotals::default() };
        for e in &self.engines {
            let c = e.cache_stats();
            t.hits += c.hits;
            t.misses += c.misses;
            t.recompiled += c.plans_recompiled;
        }
        t
    }

    /// The daemon's warm-up pass: the first request of every class.
    pub fn warm_up(&mut self) -> Result<(), String> {
        for entry in self.wl.warmup_entries() {
            self.request(entry, u32::MAX, None, None)?;
        }
        Ok(())
    }

    /// Replay one request-table entry. Returns its in-process time in ns.
    pub fn request(
        &mut self,
        entry: usize,
        request: u32,
        tracer: Option<&mut Tracer>,
        counts: Option<&mut Counts>,
    ) -> Result<u64, String> {
        let started = Instant::now();
        let mut sp = Spans { tracer, request };
        let root = sp.begin("request");

        let s = sp.begin("serve.json.parse");
        let body = Json::parse(&self.bodies[entry])?;
        let field = |k: &str| body.get(k).and_then(Json::as_str).ok_or(format!("no {k}"));
        let role = self.role_index[field("role")?];
        let doc = self.doc_index[field("doc")?];
        let approach = approach_of(field("approach")?).ok_or("bad approach")?;
        let query_text = field("query")?;
        sp.end(s);

        let s = sp.begin("xpath.parser.parse");
        let query = sxv_xpath::parse(query_text).map_err(|e| e.to_string())?;
        sp.end(s);

        let engine = &self.engines[role];
        let s = sp.begin("core.engine.lookup");
        let (planned, hit) = engine.plan_certified(&query, approach, SERVE_POLICY);
        sp.end(s);
        if !hit {
            if let Some(t) = sp.tracer.as_mut() {
                t.rename(s, "core.engine.miss");
            }
        }
        let planned = planned.map_err(|e| e.to_string())?;
        self.fused_ops += u64::from(planned.plan.summary().fused_scan);

        let (document, index) = (&self.docs[doc], &self.indexes[doc]);
        let (nodes, eval, exec_ns) = if approach == Approach::Annotate {
            let s = sp.begin("core.annotate.lookup");
            let access = engine.access_view(document, Some(index));
            sp.end(s);
            let s = sp.begin("xpath.plan.execute");
            let t = Instant::now();
            let (nodes, eval) =
                planned.plan.execute_with_access(document, Some(index), Some(&access));
            let ns = t.elapsed().as_nanos() as u64;
            sp.end(s);
            (nodes, eval, ns)
        } else {
            let s = sp.begin("xpath.plan.execute");
            let t = Instant::now();
            let (nodes, eval) = planned.plan.execute(document, Some(index));
            let ns = t.elapsed().as_nanos() as u64;
            sp.end(s);
            (nodes, eval, ns)
        };

        // Answer lines and response body exactly as the daemon builds them.
        let s = sp.begin("xml.node.serialize");
        let answers: Vec<String> = nodes
            .iter()
            .map(|&node| match document.label_opt(node) {
                Some(label) => {
                    format!(
                        "\"{}\"",
                        json_escape(&format!("<{label}> {}", document.string_value(node)))
                    )
                }
                None => {
                    format!(
                        "\"{}\"",
                        json_escape(&format!("#text {}", document.string_value(node)))
                    )
                }
            })
            .collect();
        let response = format!(
            "{{\"role\": \"{}\", \"doc\": \"{}\", \"count\": {}, \
             \"plan_cache_hit\": {}, \"latency_us\": {}, \"answers\": [{}]}}",
            json_escape(self.wl.roles[role].name),
            json_escape(self.wl.docs[doc].name),
            answers.len(),
            hit,
            started.elapsed().as_micros(),
            answers.join(", "),
        );
        sp.end(s);
        let answered = answers_slice(response.as_bytes()).unwrap_or_default();
        if answered != self.expected[entry].as_slice() {
            self.mismatches += 1;
        }
        sp.end(root);
        let total_ns = started.elapsed().as_nanos() as u64;

        if let Some(tracer) = sp.tracer {
            let class = self.wl.class_of(entry);
            self.exec_us
                .entry(format!("{}-{}", class.label, class.approach))
                .or_default()
                .push(exec_ns as f64 / 1e3);
            if !hit {
                self.translate_stepwise(&query, role, approach, request, tracer);
            }
        }
        if let Some(c) = counts {
            c.requests += 1;
            if hit {
                c.hits += 1;
            } else {
                c.misses += 1;
                let key = (role, simplify(&query).to_string(), approach);
                if !self.compiled_keys.insert(key) {
                    c.recompiles += 1;
                }
            }
            c.eval.absorb(eval);
            c.rows += nodes.len() as u64;
            c.bytes += answered.len() as u64;
        }
        Ok(total_ns)
    }

    /// The engine's miss path, one public function per span.
    fn translate_stepwise(
        &self,
        query: &sxv_xpath::Path,
        role: usize,
        approach: Approach,
        request: u32,
        tracer: &mut Tracer,
    ) {
        let root = tracer.begin("translate.stepwise", request);
        let normalized = simplify(query);
        let translated = match approach {
            Approach::Rewrite | Approach::Optimize => {
                let s = tracer.begin("core.rewrite", request);
                let rewritten = rewrite(&self.views[role], &normalized);
                tracer.end(s);
                match rewritten {
                    Ok(r) if approach == Approach::Optimize => {
                        let s = tracer.begin("core.optimize", request);
                        let optimized = optimize(self.specs[role].dtd(), &r);
                        tracer.end(s);
                        optimized
                    }
                    other => other,
                }
            }
            // Annotate serves the view query itself (naive is never replayed).
            _ => Ok(normalized),
        };
        if let Ok(translated) = translated {
            let s = tracer.begin("xpath.plan.compile", request);
            let plan = if approach == Approach::Annotate {
                compile_annotate(&translated, SERVE_POLICY, &self.costs[role])
            } else {
                compile(&translated, SERVE_POLICY, &self.costs[role])
            };
            tracer.end(s);
            let s = tracer.begin("xpath.certify", request);
            std::hint::black_box(certify(&plan, &self.certctx[role]));
            tracer.end(s);
        }
        tracer.end(root);
    }
}
