//! The architecture descriptions shipped with the tool (paper §4.2).
//!
//! One YAML document per supported FPGA family, listing the primitive-interface
//! implementations the architecture provides. These files are the only
//! per-architecture input a user has to provide, and the mapper reads every
//! fact about a primitive from them; their size (SLoC) is what the
//! extensibility experiment (§5.2) measures.
//!
//! An implementation entry gives:
//!
//! * `interface`: the Lakeroad interface it implements (`DSP`, `LUT`), with the
//!   DSP's `out-width` or the LUT's `num_inputs`;
//! * `internal_data` (LUTs): the name and width of the truth table, which becomes
//!   the `lut{i}.INIT` hole;
//! * `implementation.module`: the primitive module, whose semantics
//!   [`crate::primitives::semantics`] extracts from the mini-HDL model of that
//!   name in `lr_hdl::models`;
//! * `implementation.ports`, then `implementation.parameters`: each one's `name`,
//!   `bitwidth` and `value`, bound in the order listed. A `value` is `?NAME` (a
//!   `dsp{i}.NAME` hole of the entry's bitwidth; `below: N` restricts it to values
//!   under `N`), a DSP data operand `A`…`D` (a hole-selected multiplexer over the
//!   design's inputs, selector `dsp{i}.A_SEL`…), a LUT input `I0`…`In`, the
//!   internal data's name, or a port expression over those (`(concat HIGH … LOW)`,
//!   `(bv VALUE WIDTH)`);
//! * `implementation.outputs`: the output port `O` names.
//!
//! A new architecture built from modules that already have models is a new
//! description plus the [`crate::ArchName`] variant that names it, with no
//! instantiation code; a new module also needs its mini-HDL model in
//! `lr_hdl::models`, and no Rust.

/// Xilinx UltraScale+ architecture description.
pub const XILINX_ULTRASCALE_PLUS: &str = r#"
# Architecture description: Xilinx UltraScale+
name: xilinx-ultrascale-plus
vendor: xilinx
lut_size: 6
implementations:
  - interface: { name: DSP, out-width: 48 }
    implementation:
      module: DSP48E2
      ports:
        - { name: A, bitwidth: 30, value: A }
        - { name: B, bitwidth: 18, value: B }
        - { name: C, bitwidth: 48, value: C }
        - { name: D, bitwidth: 27, value: D }
        - { name: CARRYIN, bitwidth: 1, value: "?CARRYIN" }
        - { name: INMODE, bitwidth: 5, value: "?INMODE" }
        - { name: OPMODE, bitwidth: 9, value: "?OPMODE" }
        - { name: ALUMODE, bitwidth: 4, value: "?ALUMODE" }
      parameters:
        - { name: AREG, bitwidth: 1, value: "?AREG" }
        - { name: BREG, bitwidth: 1, value: "?BREG" }
        - { name: CREG, bitwidth: 1, value: "?CREG" }
        - { name: DREG, bitwidth: 1, value: "?DREG" }
        - { name: ADREG, bitwidth: 1, value: "?ADREG" }
        - { name: MREG, bitwidth: 1, value: "?MREG" }
        - { name: PREG, bitwidth: 1, value: "?PREG" }
        - { name: AMULTSEL, bitwidth: 1, value: "?AMULTSEL" }
      outputs: { O: P }
  - interface: { name: LUT, num_inputs: 6 }
    internal_data: { INIT: 64 }
    implementation:
      module: LUT6
      ports:
        - { name: I0, bitwidth: 1, value: I0 }
        - { name: I1, bitwidth: 1, value: I1 }
        - { name: I2, bitwidth: 1, value: I2 }
        - { name: I3, bitwidth: 1, value: I3 }
        - { name: I4, bitwidth: 1, value: I4 }
        - { name: I5, bitwidth: 1, value: I5 }
      parameters: [{ name: INIT, value: INIT }]
      outputs: { O: O }
  - interface: { name: CARRY, width: 8 }
    implementation:
      module: CARRY8
      ports:
        - { name: S, bitwidth: 8, value: S }
        - { name: DI, bitwidth: 8, value: DI }
        - { name: CI, bitwidth: 1, value: CI }
      outputs: { O: O }
"#;

/// Lattice ECP5 architecture description.
pub const LATTICE_ECP5: &str = r#"
# Architecture description: Lattice ECP5
name: lattice-ecp5
vendor: lattice
lut_size: 4
implementations:
  - interface: { name: DSP, out-width: 54 }
    implementation:
      # The ECP5 exposes its DSP as a MULT18X18C feeding an ALU54A; Lakeroad maps to
      # the pair as a single DSP, as the paper does.
      module: MULT18X18C_ALU54A
      ports:
        - { name: A, bitwidth: 18, value: A }
        - { name: B, bitwidth: 18, value: B }
        - { name: C, bitwidth: 54, value: C }
      parameters:
        - { name: REG_INPUT, bitwidth: 1, value: "?REG_INPUT" }
        - { name: REG_C, bitwidth: 1, value: "?REG_C" }
        - { name: REG_PIPE, bitwidth: 1, value: "?REG_PIPE" }
        - { name: REG_OUTPUT, bitwidth: 1, value: "?REG_OUTPUT" }
        # ALU_OP encodings 7 and up are reserved.
        - { name: ALU_OP, bitwidth: 3, value: "?ALU_OP", below: 7 }
      outputs: { O: R }
  - interface: { name: LUT, num_inputs: 4 }
    internal_data: { INIT: 16 }
    implementation:
      module: LUT4
      ports:
        - { name: A, bitwidth: 1, value: I0 }
        - { name: B, bitwidth: 1, value: I1 }
        - { name: C, bitwidth: 1, value: I2 }
        - { name: D, bitwidth: 1, value: I3 }
      parameters: [{ name: INIT, value: INIT }]
      outputs: { O: Z }
  - interface: { name: LUT, num_inputs: 2 }
    internal_data: { INIT: 4 }
    implementation:
      module: LUT2
      ports:
        - { name: A, bitwidth: 1, value: I0 }
        - { name: B, bitwidth: 1, value: I1 }
      parameters: [{ name: INIT, value: INIT }]
      outputs: { O: Z }
  - interface: { name: CARRY, width: 2 }
    implementation:
      module: CCU2C
      ports:
        - { name: A0, bitwidth: 1, value: A0 }
        - { name: B0, bitwidth: 1, value: B0 }
        - { name: A1, bitwidth: 1, value: A1 }
        - { name: B1, bitwidth: 1, value: B1 }
        - { name: CIN, bitwidth: 1, value: CIN }
      parameters:
        - { name: INIT0, value: INIT0 }
        - { name: INIT1, value: INIT1 }
      outputs: { O: S }
"#;

/// Intel Cyclone 10 LP architecture description.
pub const INTEL_CYCLONE10LP: &str = r#"
# Architecture description: Intel Cyclone 10 LP
name: intel-cyclone10lp
vendor: intel
lut_size: 4
implementations:
  - interface: { name: DSP, out-width: 36 }
    implementation:
      module: cyclone10lp_mac_mult
      ports:
        - { name: dataa, bitwidth: 18, value: A }
        - { name: datab, bitwidth: 18, value: B }
      parameters:
        - { name: REGISTER_A, bitwidth: 1, value: "?REGISTER_A" }
        - { name: REGISTER_B, bitwidth: 1, value: "?REGISTER_B" }
        - { name: REGISTER_OUT, bitwidth: 1, value: "?REGISTER_OUT" }
      outputs: { O: dataout }
  - interface: { name: LUT, num_inputs: 4 }
    internal_data: { INIT: 16 }
    implementation:
      module: LUT4
      ports:
        - { name: A, bitwidth: 1, value: I0 }
        - { name: B, bitwidth: 1, value: I1 }
        - { name: C, bitwidth: 1, value: I2 }
        - { name: D, bitwidth: 1, value: I3 }
      parameters: [{ name: INIT, value: INIT }]
      outputs: { O: Z }
"#;

/// SOFA architecture description (Figure 5 of the paper).
pub const SOFA: &str = r#"
# Architecture description: SOFA (no DSP; a single fracturable LUT4)
name: sofa
vendor: openfpga
lut_size: 4
implementations:
  - interface: { name: LUT, num_inputs: 4 }
    internal_data: { sram: 16 }
    implementation:
      module: frac_lut4
      ports:
        - { name: in, bitwidth: 4, value: "(concat I3 I2 I1 I0)" }
        - { name: mode, bitwidth: 1, value: "(bv 0 1)" }
      parameters: [{ name: sram, value: sram }]
      outputs: { O: lut4_out }
"#;
