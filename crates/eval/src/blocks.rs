//! Weighted basic blocks.
//!
//! The paper evaluates every predictor on microkernels built from the
//! instruction mix of real basic blocks, weighted by how often the block was
//! executed in the original benchmark run (the weights enter the RMS error).

use palmed_isa::{InstructionSet, Microkernel};
use palmed_serve::Corpus;

/// One basic block of a benchmark suite: an instruction mix plus a dynamic
/// execution weight.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Identifier (suite name + index), for reports.
    pub name: String,
    /// The dependency-free microkernel built from the block's instruction mix.
    pub kernel: Microkernel,
    /// Dynamic execution weight (≥ 0).
    pub weight: f64,
}

impl BasicBlock {
    /// Creates a block.
    ///
    /// # Panics
    ///
    /// Panics if the weight is negative or not finite.
    pub fn new(name: impl Into<String>, kernel: Microkernel, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "invalid weight {weight}");
        BasicBlock { name: name.into(), kernel, weight }
    }

    /// Number of instructions in one iteration of the block.
    pub fn size(&self) -> u32 {
        self.kernel.total_instructions()
    }

    /// Renders the block with resolved instruction names.
    pub fn render(&self, insts: &InstructionSet) -> String {
        format!(
            "{} (w={:.1}): {}",
            self.name,
            self.weight,
            self.kernel.display_with(|i| insts.name(i).to_string())
        )
    }
}

/// Converts a generated suite into a saveable [`Corpus`] (kernels are
/// interned as they are appended).
pub fn blocks_to_corpus(blocks: &[BasicBlock]) -> Corpus {
    blocks.iter().map(|b| (&b.name, b.weight, b.kernel.clone())).collect()
}

/// Converts a loaded [`Corpus`] into evaluation blocks.
pub fn corpus_to_blocks(corpus: &Corpus) -> Vec<BasicBlock> {
    corpus
        .iter()
        .map(|(name, block, kernel)| BasicBlock::new(name, kernel.clone(), block.weight))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::InstId;

    #[test]
    fn block_accessors() {
        let k = Microkernel::pair(InstId(0), 2, InstId(1), 1);
        let b = BasicBlock::new("spec/0", k, 10.0);
        assert_eq!(b.size(), 3);
        assert_eq!(b.name, "spec/0");
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        BasicBlock::new("x", Microkernel::single(InstId(0)), -1.0);
    }

    #[test]
    fn render_uses_instruction_names() {
        let insts = InstructionSet::paper_example();
        let addss = insts.find("ADDSS").unwrap();
        let b = BasicBlock::new("poly/3", Microkernel::single(addss), 2.0);
        assert!(b.render(&insts).contains("ADDSS"));
    }

    #[test]
    fn corpus_conversion_round_trips_through_text() {
        let insts = InstructionSet::paper_example();
        let addss = insts.find("ADDSS").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let blocks = vec![
            BasicBlock::new("s/0", Microkernel::pair(addss, 2, bsr, 1), 10.0),
            BasicBlock::new("s/1", Microkernel::single(bsr), 1.5),
        ];
        let corpus = blocks_to_corpus(&blocks);
        let reloaded = Corpus::parse(&corpus.render(&insts), &insts).unwrap();
        assert_eq!(corpus_to_blocks(&reloaded), blocks);
    }
}
