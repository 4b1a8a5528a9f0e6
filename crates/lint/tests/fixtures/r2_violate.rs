//! R2 fixture: Sym parameters with ambiguous owners.  Linted as if it were
//! `crates/dom/src/merge.rs`.

pub struct Document;
pub struct Sym(pub u32);

pub fn copy_label(dst: &mut Document, src: &Document, label: Sym) -> u32 { //~ R2
    let _ = (dst, src);
    label.0
}

impl Document {
    pub fn label_of(&self, other: &Document, label: Sym) -> u32 { //~ R2
        let _ = other;
        label.0
    }
}
