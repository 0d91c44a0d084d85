//! Workload definitions: documents, roles, request classes and the seeded
//! request sequence. Both the input generator and the measuring process
//! rebuild the same [`Workload`] from `(name, seed)`, so they agree on
//! every table index without exchanging anything but the generated files.

use sxv_gen::GenConfig;
use sxv_xml::json_escape;

/// Document families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Adex,
    Bom,
}

const ADEX_DTD: &str = include_str!("../inputs/adex.dtd");
const BOM_DTD: &str = include_str!("../inputs/bom.dtd");
const ADEX_ANALYST_SPEC: &str = include_str!("../inputs/adex_analyst.spec");
const ADEX_ADVERTISER_SPEC: &str = include_str!("../inputs/adex_advertiser.spec");
const BOM_CONTRACTOR_SPEC: &str = include_str!("../inputs/bom_contractor.spec");

impl Family {
    pub fn dtd_text(self) -> &'static str {
        match self {
            Family::Adex => ADEX_DTD,
            Family::Bom => BOM_DTD,
        }
    }

    pub fn root(self) -> &'static str {
        match self {
            Family::Adex => "adex",
            Family::Bom => "bom",
        }
    }
}

/// One served document: its tenant name and how to generate it.
pub struct DocDef {
    pub name: &'static str,
    pub family: Family,
    pub config: GenConfig,
}

/// One served role: its tenant name and access specification text.
pub struct RoleDef {
    pub name: &'static str,
    pub family: Family,
    pub spec: &'static str,
}

/// A request class: one query template under one approach, role and
/// document. Templates containing `{c}` take a string constant.
pub struct Class {
    pub label: &'static str,
    pub template: &'static str,
    pub approach: &'static str,
    pub role: usize,
    pub doc: usize,
}

/// Approaches in every timed mix. `naive` is left out: it walks the
/// annotated copy without an index and would own any mix it joined.
pub const APPROACHES: [&str; 3] = ["rewrite", "optimize", "annotate"];

/// Classes whose executor time is reported per class
/// (`xpath.plan.execute_us.<label>-<approach>`).
pub const EXEC_CLASS_LABELS: [&str; 5] = ["Q2", "Q4", "B1", "B2", "B3"];

/// Length of the seeded request sequence; runs that get further wrap
/// around to its start.
const SEQUENCE_LEN: usize = 1 << 18;

pub struct Workload {
    pub name: &'static str,
    pub docs: Vec<DocDef>,
    pub roles: Vec<RoleDef>,
    pub classes: Vec<Class>,
    /// String constants per class (1 when templates take none). The
    /// request table holds `classes.len() * consts` distinct requests;
    /// entry `class * consts + k` uses constant `k`.
    pub consts: usize,
    /// Seeded replay order: indices into the request table.
    pub sequence: Vec<u32>,
}

/// SplitMix64: a tiny seeded generator, so the request sequence does not
/// depend on any crate the program under test might change.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Adex document with a fixed fan-out: every `*` repeats exactly `branch`
/// times, so the size is the same for every seed and only the choices
/// (real-estate / employment / automotive, house / apartment) and the
/// text values vary.
fn adex_doc(name: &'static str, branch: usize, seed: u64) -> DocDef {
    let config =
        GenConfig::seeded(seed).with_max_branch(branch).with_min_branch(branch).with_max_depth(64);
    DocDef { name, family: Family::Adex, config }
}

/// Bill-of-materials document with a fixed fan-out and nesting depth.
fn bom_doc(name: &'static str, branch: usize, depth: usize, seed: u64) -> DocDef {
    let config = GenConfig::seeded(seed)
        .with_max_branch(branch)
        .with_min_branch(branch)
        .with_max_depth(depth)
        .with_values("partno", (0..128).map(|k| format!("p{k}")))
        .with_values("name", (0..16).map(|k| format!("n{k}")));
    DocDef { name, family: Family::Bom, config }
}

fn role(name: &'static str) -> RoleDef {
    match name {
        "analyst" => RoleDef { name, family: Family::Adex, spec: ADEX_ANALYST_SPEC },
        "advertiser" => RoleDef { name, family: Family::Adex, spec: ADEX_ADVERTISER_SPEC },
        "contractor" => RoleDef { name, family: Family::Bom, spec: BOM_CONTRACTOR_SPEC },
        _ => unreachable!("unknown role {name}"),
    }
}

/// Every `(label, template)` × approach × role × doc combination, in a
/// fixed order.
fn cross(queries: &[(&'static str, &'static str)], roles: &[usize], docs: &[usize]) -> Vec<Class> {
    let mut out = Vec::new();
    for &(label, template) in queries {
        for approach in APPROACHES {
            for &role in roles {
                for &doc in docs {
                    out.push(Class { label, template, approach, role, doc });
                }
            }
        }
    }
    out
}

pub const WORKLOADS: [&str; 3] = ["serve_point", "exec_scan", "plan_churn"];

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = SplitMix::new(seed ^ 0x5EED_F00D);
        let mut doc_seed = || rng.next_u64();
        let (name, docs, roles, classes, consts) = match name {
            // Serve path: point queries over two ~70k-node documents.
            "serve_point" => {
                let docs =
                    vec![adex_doc("adex1", 30, doc_seed()), adex_doc("adex2", 30, doc_seed())];
                let roles = vec![role("analyst"), role("advertiser")];
                let q = [
                    ("Q1", "//buyer-info/contact-info"),
                    ("Q3", "//buyer-info[//company-id and //contact-info]"),
                ];
                ("serve_point", docs, roles, cross(&q, &[0, 1], &[0, 1]), 1)
            }
            // Executor: scans over two ~39k-node documents plus a deep
            // recursive bill of materials. (At ~190k nodes the scans felt
            // the host's memory traffic and drifted up to 2x.)
            "exec_scan" => {
                let docs = vec![
                    adex_doc("adex1", 24, doc_seed()),
                    adex_doc("adex2", 24, doc_seed()),
                    bom_doc("bom1", 2, 16, doc_seed()),
                ];
                let roles = vec![role("analyst"), role("contractor")];
                let adex = [
                    ("Q2", "//house/r-e.warranty | //apartment/r-e.warranty"),
                    ("Q4", "//real-estate[//r-e.asking-price and //r-e.unit-type]"),
                ];
                let bom = [
                    ("B1", "//partno"),
                    ("B2", "//part/name"),
                    ("B3", "assembly/part/subpart//partno"),
                ];
                let mut classes = cross(&adex, &[0], &[0, 1]);
                classes.extend(cross(&bom, &[1], &[2]));
                ("exec_scan", docs, roles, classes, 1)
            }
            // Translation: every request is a fresh query text, so the
            // 64-entry plan cache misses and evicts.
            "plan_churn" => {
                let docs = vec![
                    adex_doc("adex1", 20, doc_seed()).with_adex_pools(),
                    adex_doc("adex2", 20, doc_seed()).with_adex_pools(),
                    bom_doc("bom1", 2, 14, doc_seed()),
                ];
                let roles = vec![role("analyst"), role("advertiser"), role("contractor")];
                let adex = [
                    ("T1", "//buyer-info[company-id = \"co{c}\"]/contact-info"),
                    ("T2", "//house[r-e.location = \"loc{c}\"]/r-e.asking-price"),
                    ("T3", "//real-estate[apartment/r-e.unit-type = \"ut{c}\"]//r-e.rental-price"),
                ];
                let bom = [
                    ("T4", "//part[partno = \"p{c}\"]/name"),
                    ("T5", "assembly/part[subpart//partno = \"p{c}\"]/partno"),
                ];
                let mut classes = cross(&adex, &[0, 1], &[0, 1]);
                classes.extend(cross(&bom, &[2], &[2]));
                ("plan_churn", docs, roles, classes, 1024)
            }
            _ => return None,
        };
        // Blocks of seeded permutations of all classes: every class gets
        // the same share of any window, so the mix cannot drift by seed.
        let mut sequence = Vec::with_capacity(SEQUENCE_LEN);
        let mut block: Vec<usize> = (0..classes.len()).collect();
        while sequence.len() < SEQUENCE_LEN {
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
            for &class in &block {
                let k = if consts > 1 { rng.below(consts) } else { 0 };
                sequence.push((class * consts + k) as u32);
            }
        }
        sequence.truncate(SEQUENCE_LEN);
        Some(Workload { name, docs, roles, classes, consts, sequence })
    }

    /// Number of distinct requests.
    pub fn table_len(&self) -> usize {
        self.classes.len() * self.consts
    }

    pub fn class_of(&self, entry: usize) -> &Class {
        &self.classes[entry / self.consts]
    }

    /// Query text of one request-table entry.
    pub fn query(&self, entry: usize) -> String {
        let class = self.class_of(entry);
        class.template.replace("{c}", &(entry % self.consts).to_string())
    }

    /// Table entry a class uses in the warm-up pass (its first constant).
    pub fn warmup_entries(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.classes.len()).map(|c| c * self.consts)
    }

    /// JSON body of one request-table entry, as a client would send it.
    pub fn body(&self, entry: usize) -> String {
        let class = self.class_of(entry);
        format!(
            "{{\"role\": \"{}\", \"doc\": \"{}\", \"query\": \"{}\", \"approach\": \"{}\"}}",
            self.roles[class.role].name,
            self.docs[class.doc].name,
            json_escape(&self.query(entry)),
            class.approach,
        )
    }
}

impl DocDef {
    /// Value pools for the string constants of the `plan_churn` templates,
    /// so a share of the constants select real nodes.
    fn with_adex_pools(mut self) -> DocDef {
        self.config = self
            .config
            .with_values("company-id", (0..16).map(|k| format!("co{k}")))
            .with_values("r-e.location", (0..64).map(|k| format!("loc{k}")))
            .with_values("r-e.unit-type", (0..32).map(|k| format!("ut{k}")));
        self
    }
}
