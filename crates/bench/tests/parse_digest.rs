//! Parser fidelity on the synthetic web: `wi-webgen` pages (detail and
//! listing pages of one site per vertical, six snapshots each), serialized
//! and parsed back, must produce exactly the arenas recorded in
//! `EXPECTED_DIGEST`.
//!
//! The digest covers each arena slot (kind, tag, attributes, text, the five
//! structural links, the tag symbol and the attribute symbols) and the
//! interner's strings in symbol order, so a parser change that keeps the
//! tree but renumbers nodes or symbols changes it.  `crates/dom/tests/
//! parse_golden.rs` is the readable counterpart on hand-written tag soup.

use wi_dom::{parse_html, to_html, Document, NodeData, NodeId, Sym};
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::date::Day;
use wi_webgen::site::{PageKind, Site};
use wi_webgen::style::Vertical;

/// FNV-1a over the canonical dump; stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.num(s.len());
        self.bytes(s.as_bytes());
    }

    fn num(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn link(&mut self, id: Option<NodeId>) {
        self.num(id.map_or(usize::MAX, NodeId::index));
    }

    fn sym(&mut self, sym: Option<Sym>) {
        self.num(sym.map_or(usize::MAX, Sym::index));
    }
}

fn digest_document(doc: &Document, d: &mut Digest) {
    let mut strings: Vec<Option<&str>> = vec![None; doc.interner().len()];
    d.num(doc.len());
    for index in 0..doc.len() {
        let id = NodeId::from_index(index);
        match doc.data(id) {
            NodeData::Element { tag, attributes } => {
                d.num(1);
                d.str(tag);
                d.num(attributes.len());
                for a in attributes {
                    d.str(&a.name);
                    d.str(&a.value);
                }
            }
            NodeData::Text(t) => {
                d.num(2);
                d.str(t);
            }
        }
        for link in [
            doc.parent(id),
            doc.first_child(id),
            doc.last_child(id),
            doc.prev_sibling(id),
            doc.next_sibling(id),
        ] {
            d.link(link);
        }
        d.sym(doc.tag_sym(id));
        d.num(doc.attr_syms(id).len());
        for &(n, v) in doc.attr_syms(id) {
            d.sym(Some(n));
            d.sym(Some(v));
        }
        for sym in doc
            .tag_sym(id)
            .into_iter()
            .chain(doc.attr_syms(id).iter().flat_map(|&(n, v)| [n, v]))
        {
            strings[sym.index()] = Some(doc.resolve_sym(sym));
        }
    }
    d.num(strings.len());
    for s in strings {
        d.str(s.expect("a parsed document interns only strings its arena uses"));
    }
}

/// The pages: detail and listing pages of one site per vertical, across a
/// timeline long enough to cross template changes and broken snapshots.
fn pages() -> Vec<String> {
    let mut pages = Vec::new();
    for (index, &vertical) in Vertical::ALL.iter().enumerate() {
        for kind in [PageKind::Detail, PageKind::Listing] {
            let archive = ArchiveSimulator::new(Site::new(vertical, index as u64 * 7), 0, kind);
            for t in 0..6 {
                pages.push(to_html(&archive.snapshot(Day(t * 120)).doc));
            }
        }
    }
    pages
}

/// Recorded with the parser as of the change that introduced this test.
const EXPECTED_DIGEST: u64 = 0xe3e2_df3e_d7d6_f439;

#[test]
fn rendered_webgen_pages_parse_to_the_recorded_arenas() {
    let pages = pages();
    let mut d = Digest::new();
    d.num(pages.len());
    for html in &pages {
        let doc = parse_html(html).expect("rendered pages parse");
        digest_document(&doc, &mut d);
    }
    assert_eq!(
        d.0,
        EXPECTED_DIGEST,
        "parsed arenas of {} webgen pages changed: digest {:#018x}",
        pages.len(),
        d.0
    );
}
