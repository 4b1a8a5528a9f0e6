//! R2 clean twin: strings cross the document boundary, and a dom method
//! that takes a Sym reads only its own document.

pub struct Document;
pub struct Sym(pub u32);

pub fn copy_label(dst: &mut Document, src: &Document, label: &str) -> u32 {
    let _ = (dst, src);
    label.len() as u32
}

impl Document {
    pub fn label_of(&self, label: Sym) -> u32 {
        label.0
    }
}
