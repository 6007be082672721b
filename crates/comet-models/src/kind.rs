//! The named base models a server or a store build can be asked for.

use comet_isa::Microarch;

use crate::crude::CrudeModel;
use crate::simulated::UicaSurrogate;
use crate::traits::CostModel;

/// Which base model to serve or to explain a corpus under. The label is
/// the rebuild recipe: the registry records it in every snapshot, and a
/// store records it in its provenance, which serving compares before it
/// answers from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's interpretable analytical model C on Haswell.
    CrudeHaswell,
    /// The analytical model C on Skylake.
    CrudeSkylake,
    /// The uiCA surrogate (pipeline simulator) on Haswell.
    Uica,
}

impl ModelKind {
    /// Parse a `--model` argument.
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s {
            "crude" | "crude-haswell" => Some(ModelKind::CrudeHaswell),
            "crude-skylake" => Some(ModelKind::CrudeSkylake),
            "uica" => Some(ModelKind::Uica),
            _ => None,
        }
    }

    /// The canonical rebuild-recipe string (round-trips through
    /// [`ModelKind::parse`] and the registry's snapshot `kind` field).
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::CrudeHaswell => "crude-haswell",
            ModelKind::CrudeSkylake => "crude-skylake",
            ModelKind::Uica => "uica",
        }
    }

    /// Instantiate the base model and its paper-default ε.
    pub fn build(self) -> (Box<dyn CostModel + Send + Sync>, f64) {
        match self {
            ModelKind::CrudeHaswell => (Box::new(CrudeModel::new(Microarch::Haswell)), 0.25),
            ModelKind::CrudeSkylake => (Box::new(CrudeModel::new(Microarch::Skylake)), 0.25),
            ModelKind::Uica => (Box::new(UicaSurrogate::new(Microarch::Haswell)), 0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_parses_the_documented_names() {
        assert_eq!(ModelKind::parse("crude"), Some(ModelKind::CrudeHaswell));
        assert_eq!(ModelKind::parse("crude-haswell"), Some(ModelKind::CrudeHaswell));
        assert_eq!(ModelKind::parse("crude-skylake"), Some(ModelKind::CrudeSkylake));
        assert_eq!(ModelKind::parse("uica"), Some(ModelKind::Uica));
        assert_eq!(ModelKind::parse("ithemal"), None);
        // Labels round-trip through parse (the registry relies on it).
        for kind in [ModelKind::CrudeHaswell, ModelKind::CrudeSkylake, ModelKind::Uica] {
            assert_eq!(ModelKind::parse(kind.label()), Some(kind));
        }
    }
}
