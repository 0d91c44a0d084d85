//! Input generation, run in its own process so that the measuring
//! process's peak RSS excludes it: writes each document's XML text and
//! the expected `answers` slice of every distinct request.
//!
//! Expected answers come from an independent path: the security view is
//! materialized per (role, document) and the view query is evaluated on
//! it by the tree walker (`MaterializedBaseline`), which shares no
//! translation, planning or execution code with the served approaches.

use crate::workload::Workload;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use sxv_core::{derive_view, AccessSpec, MaterializedBaseline};
use sxv_dtd::parse_dtd;
use sxv_gen::Generator;
use sxv_xml::{json_escape, Document, NodeId};

pub const EXPECTED_FILE: &str = "expected.txt";

/// First line of the expected-answers file, binding it to its inputs.
pub fn header(wl: &Workload, seed: u64) -> String {
    format!("perfbench {} seed={seed} entries={}", wl.name, wl.table_len())
}

/// The `answers` array contents exactly as the daemon renders them: one
/// JSON string per node, `<label> value` for elements and `#text value`
/// for text nodes, joined by `", "`.
fn render_answers(doc: &Document, nodes: &[NodeId], out: &mut String) {
    for (i, &node) in nodes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let line = match doc.label_opt(node) {
            Some(label) => format!("<{label}> {}", doc.string_value(node)),
            None => format!("#text {}", doc.string_value(node)),
        };
        out.push('"');
        out.push_str(&json_escape(&line));
        out.push('"');
    }
}

pub fn generate(wl: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut docs = Vec::new();
    for def in &wl.docs {
        let dtd = parse_dtd(def.family.dtd_text(), def.family.root()).map_err(|e| e.to_string())?;
        let mut xml = Vec::new();
        Generator::for_dtd(&dtd, def.config.clone())
            .generate_to(&mut xml)
            .map_err(|e| e.to_string())?
            .ok_or("DTD has no instance")?;
        let path = dir.join(format!("{}.xml", def.name));
        std::fs::write(&path, &xml).map_err(|e| format!("{}: {e}", path.display()))?;
        let text = String::from_utf8(xml).map_err(|e| e.to_string())?;
        // Answers are computed on the document parsed from the very text
        // the daemon will parse.
        docs.push(sxv_xml::parse(&text).map_err(|e| e.to_string())?);
        eprintln!("perfbench: {} has {} nodes", def.name, docs.last().map_or(0, Document::len));
    }

    let mut specs = Vec::new();
    for role in &wl.roles {
        let dtd =
            parse_dtd(role.family.dtd_text(), role.family.root()).map_err(|e| e.to_string())?;
        specs.push(AccessSpec::parse(&dtd, role.spec, &[]).map_err(|e| e.to_string())?);
    }
    let views = specs
        .iter()
        .map(|s| derive_view(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;

    // One materialized view per (role, doc); one answer per distinct
    // (role, doc, query) — approaches must all agree with it.
    let mut baselines: HashMap<(usize, usize), MaterializedBaseline<'_>> = HashMap::new();
    let mut memo: HashMap<(usize, usize, String), String> = HashMap::new();
    let mut out = String::new();
    out.push_str(&header(wl, seed));
    out.push('\n');
    for entry in 0..wl.table_len() {
        let class = wl.class_of(entry);
        let query = wl.query(entry);
        let key = (class.role, class.doc, query);
        if !memo.contains_key(&key) {
            let baseline = baselines.entry((class.role, class.doc)).or_insert_with(|| {
                MaterializedBaseline::new(&specs[class.role], &views[class.role])
            });
            let parsed = sxv_xpath::parse(&key.2).map_err(|e| format!("{}: {e}", key.2))?;
            let doc = &docs[class.doc];
            let mut nodes = baseline.answer(doc, &parsed).map_err(|e| e.to_string())?;
            nodes.sort_unstable();
            nodes.dedup();
            let mut rendered = String::new();
            render_answers(doc, &nodes, &mut rendered);
            memo.insert(key.clone(), rendered);
        }
        out.push_str(&memo[&key]);
        out.push('\n');
    }
    let path = dir.join(EXPECTED_FILE);
    let mut file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(out.as_bytes()).map_err(|e| e.to_string())?;
    Ok(())
}
