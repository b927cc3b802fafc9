//! Experiment E6 — Table 1: the primitives each architecture description names,
//! with the size of each primitive's mini-HDL model, measured from the models
//! semantics are extracted from.

use lr_bench::print_primitives_table;

fn main() {
    println!("E6 (Table 1): imported primitive models");
    print_primitives_table();
}
