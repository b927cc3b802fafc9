//! # lr-arch: primitive interfaces, architecture descriptions, and primitive models
//!
//! This crate is Lakeroad's "input 2 and input 3" (Figure 1 of the paper): the short
//! per-architecture description that lists which primitives an FPGA family provides,
//! and the solver-ready semantics of those primitives.
//!
//! * [`Architecture`] wraps one of the four shipped architecture descriptions
//!   (Xilinx UltraScale+, Lattice ECP5, Intel Cyclone 10 LP, SOFA), parsed from YAML
//!   by the in-tree [`yaml`] parser.
//! * [`primitives`] holds the primitive semantic models, looked up by module name
//!   through [`primitives::semantics`]; simple primitives are extracted from
//!   mini-HDL models via `lr-hdl`, the two big DSPs are built programmatically.
//! * [`Architecture::instantiate_dsp`] / [`Architecture::instantiate_lut`] are the
//!   hooks the sketch generator (`lr-sketch`) uses to specialize its
//!   architecture-independent templates. Both instantiate the description's
//!   implementation entry the same way: they walk its ports and parameters,
//!   create the holes and port-selection logic its `value`s ask for (see
//!   [`descriptions`]), and return the resulting node. No module, port, width or
//!   hole is restated in Rust.

pub mod descriptions;
pub mod primitives;
pub mod yaml;

use std::collections::BTreeMap;

use lr_bv::BitVec;
use lr_ir::{BvOp, HoleDomain, NodeId, PrimInstance, ProgBuilder};

use yaml::{parse_yaml, Yaml};

/// The FPGA architectures shipped with the tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchName {
    /// Xilinx UltraScale+ (DSP48E2, LUT6, CARRY8).
    XilinxUltraScalePlus,
    /// Lattice ECP5 (MULT18X18C + ALU54A, LUT4/LUT2, CCU2C).
    LatticeEcp5,
    /// Intel Cyclone 10 LP (cyclone10lp_mac_mult, LUT4).
    IntelCyclone10Lp,
    /// SOFA, the open-source FPGA (frac_lut4 only; no DSP).
    Sofa,
}

impl std::fmt::Display for ArchName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArchName::XilinxUltraScalePlus => "Xilinx UltraScale+",
            ArchName::LatticeEcp5 => "Lattice ECP5",
            ArchName::IntelCyclone10Lp => "Intel Cyclone 10 LP",
            ArchName::Sofa => "SOFA",
        };
        write!(f, "{s}")
    }
}

/// The result of instantiating a DSP primitive interface into a sketch under
/// construction.
#[derive(Debug, Clone)]
pub struct DspInstantiation {
    /// The primitive node (its value is the DSP's full-width output).
    pub node: NodeId,
    /// Width of the DSP's output port (the description's `out-width`).
    pub output_width: u32,
}

/// An FPGA architecture: its description plus programmatic access to its primitives.
#[derive(Debug, Clone)]
pub struct Architecture {
    name: ArchName,
    description: &'static str,
    parsed: Yaml,
}

impl Architecture {
    /// Loads the Xilinx UltraScale+ architecture.
    pub fn xilinx_ultrascale_plus() -> Self {
        Self::load(ArchName::XilinxUltraScalePlus)
    }

    /// Loads the Lattice ECP5 architecture.
    pub fn lattice_ecp5() -> Self {
        Self::load(ArchName::LatticeEcp5)
    }

    /// Loads the Intel Cyclone 10 LP architecture.
    pub fn intel_cyclone10lp() -> Self {
        Self::load(ArchName::IntelCyclone10Lp)
    }

    /// Loads the SOFA architecture.
    pub fn sofa() -> Self {
        Self::load(ArchName::Sofa)
    }

    /// Loads an architecture by name.
    pub fn load(name: ArchName) -> Self {
        let description = match name {
            ArchName::XilinxUltraScalePlus => descriptions::XILINX_ULTRASCALE_PLUS,
            ArchName::LatticeEcp5 => descriptions::LATTICE_ECP5,
            ArchName::IntelCyclone10Lp => descriptions::INTEL_CYCLONE10LP,
            ArchName::Sofa => descriptions::SOFA,
        };
        let parsed = parse_yaml(description).expect("shipped architecture descriptions parse");
        Architecture { name, description, parsed }
    }

    /// All four shipped architectures.
    pub fn all() -> Vec<Architecture> {
        vec![
            Self::xilinx_ultrascale_plus(),
            Self::lattice_ecp5(),
            Self::intel_cyclone10lp(),
            Self::sofa(),
        ]
    }

    /// The three architectures with a DSP (used by the completeness experiment).
    pub fn with_dsps() -> Vec<Architecture> {
        vec![Self::xilinx_ultrascale_plus(), Self::lattice_ecp5(), Self::intel_cyclone10lp()]
    }

    /// The architecture's name.
    pub fn name(&self) -> ArchName {
        self.name
    }

    /// Source lines of code of the architecture description (the §5.2 metric).
    pub fn description_sloc(&self) -> usize {
        lr_hdl::count_sloc(self.description)
    }

    /// The interface implementations listed in the description.
    pub fn implementations(&self) -> &[Yaml] {
        list(&self.parsed, "implementations")
    }

    /// The LUT size this architecture provides.
    pub fn lut_size(&self) -> u32 {
        number(&self.parsed, "lut_size").unwrap_or(4)
    }

    /// Whether the architecture provides a DSP.
    pub fn has_dsp(&self) -> bool {
        self.dsp().is_some()
    }

    /// The concrete module name of the architecture's DSP, if any.
    pub fn dsp_module(&self) -> Option<&str> {
        self.dsp().map(|dsp| text(field(dsp, "implementation"), "module"))
    }

    /// The widest data operand the DSP's multiplier accepts: the narrower of the
    /// ports bound to the `A` and `B` operands (18 bits on all three DSP-bearing
    /// architectures; the paper's microbenchmarks stop at 18 bits for the same
    /// reason).
    pub fn dsp_max_operand_width(&self) -> Option<u32> {
        list(field(self.dsp()?, "implementation"), "ports")
            .iter()
            .filter(|port| matches!(port.get("value").and_then(Yaml::as_str), Some("A" | "B")))
            .filter_map(|port| number(port, "bitwidth"))
            .min()
    }

    /// The description's DSP implementation entry, if it lists one.
    fn dsp(&self) -> Option<&Yaml> {
        self.implementations().iter().find(|entry| text(field(entry, "interface"), "name") == "DSP")
    }

    /// The description's LUT implementation entry with [`Architecture::lut_size`]
    /// inputs.
    fn lut(&self) -> &Yaml {
        let size = self.lut_size();
        self.implementations()
            .iter()
            .find(|entry| {
                let interface = field(entry, "interface");
                text(interface, "name") == "LUT" && number(interface, "num_inputs") == Some(size)
            })
            .unwrap_or_else(|| panic!("{} describes no LUT{size}", self.name))
    }

    /// Instantiates the architecture's DSP into a sketch under construction.
    ///
    /// `design_inputs` are the design's input nodes (already created in `builder`);
    /// each DSP data port is driven by a hole-selected multiplexer over those inputs
    /// (or zero), so the solver chooses the port assignment. Returns `None` if the
    /// architecture has no DSP.
    ///
    /// `instance_index` must be unique per primitive instance within one sketch; it
    /// is used both for hole-name prefixes and to keep semantics node ids disjoint.
    pub fn instantiate_dsp(
        &self,
        builder: &mut ProgBuilder,
        design_inputs: &[(String, NodeId, u32)],
        instance_index: usize,
    ) -> Option<DspInstantiation> {
        let dsp = self.dsp()?;
        let operands = Operands {
            prefix: format!("dsp{instance_index}"),
            design_inputs,
            named: BTreeMap::new(),
        };
        let node = instantiate(builder, dsp, &operands, instance_index);
        let output_width = number(field(dsp, "interface"), "out-width")
            .expect("a DSP interface gives its out-width");
        Some(DspInstantiation { node, output_width })
    }

    /// Instantiates one LUT of this architecture, driven by the given 1-bit input
    /// nodes (missing inputs are tied to zero). Creates a fresh hole for the LUT's
    /// internal data (`INIT`, or SOFA's `sram`) and returns the LUT's 1-bit output
    /// node.
    pub fn instantiate_lut(
        &self,
        builder: &mut ProgBuilder,
        inputs: &[NodeId],
        instance_index: usize,
    ) -> NodeId {
        let size = self.lut_size();
        assert!(
            inputs.len() as u32 <= size,
            "LUT{size} cannot take {} inputs on {}",
            inputs.len(),
            self.name
        );
        let lut = self.lut();
        let zero1 = builder.constant_u64(0, 1);
        let mut named: BTreeMap<String, NodeId> = (0..size as usize)
            .map(|i| (format!("I{i}"), inputs.get(i).copied().unwrap_or(zero1)))
            .collect();
        let data = field(lut, "internal_data");
        for name in data.as_map().map(BTreeMap::keys).into_iter().flatten() {
            let width = number(data, name).expect("internal data gives its width");
            let hole =
                builder.hole(&format!("lut{instance_index}.INIT"), width, HoleDomain::AnyConstant);
            named.insert(name.clone(), hole);
        }
        let operands =
            Operands { prefix: format!("lut{instance_index}"), design_inputs: &[], named };
        instantiate(builder, lut, &operands, instance_index)
    }
}

/// Instantiates one `implementations` entry of a description: binds each of its
/// `ports`, then each of its `parameters`, in description order, and adds the
/// primitive node with the semantics of its module.
fn instantiate(
    builder: &mut ProgBuilder,
    entry: &Yaml,
    operands: &Operands,
    instance_index: usize,
) -> NodeId {
    let implementation = field(entry, "implementation");
    let module = text(implementation, "module");
    let semantics = primitives::semantics(module)
        .unwrap_or_else(|| panic!("no semantics for module `{module}`"))
        .with_id_offset(semantics_id_offset(instance_index));
    let mut bindings = BTreeMap::new();
    for binding in list(implementation, "ports").iter().chain(list(implementation, "parameters")) {
        bindings.insert(text(binding, "name").to_string(), operands.bind(builder, binding));
    }
    let param_names =
        list(implementation, "parameters").iter().map(|p| text(p, "name").to_string()).collect();
    let interface = field(entry, "interface");
    let interface = match number(interface, "num_inputs") {
        Some(n) => format!("{}{n}", text(interface, "name")),
        None => text(interface, "name").to_string(),
    };
    builder.prim(PrimInstance {
        module: module.to_string(),
        interface,
        bindings,
        semantics,
        param_names,
        output_port: text(field(implementation, "outputs"), "O").to_string(),
    })
}

/// What the `value`s of one implementation entry can name while it is
/// instantiated.
struct Operands<'a> {
    /// Hole-name prefix of this instance (`dsp0`, `lut3`).
    prefix: String,
    /// The design inputs a DSP data operand (`A`…`D`) selects among.
    design_inputs: &'a [(String, NodeId, u32)],
    /// Nodes that port expressions name: a LUT's inputs `I0`…`In` and its
    /// internal data.
    named: BTreeMap<String, NodeId>,
}

impl Operands<'_> {
    /// The node that one port or parameter entry binds. `?NAME` is a fresh
    /// `{prefix}.NAME` hole of the entry's `bitwidth`, restricted to values
    /// `below` a bound when the entry gives one; `A`…`D` is a DSP data operand,
    /// a hole-selected multiplexer over the design inputs at the entry's
    /// `bitwidth`; anything else is a port expression over the named nodes.
    fn bind(&self, builder: &mut ProgBuilder, entry: &Yaml) -> NodeId {
        let value = text(entry, "value");
        let width =
            || number(entry, "bitwidth").unwrap_or_else(|| panic!("`{value}` needs a bitwidth"));
        if let Some(hole) = value.strip_prefix('?') {
            let width = width();
            let domain = match number(entry, "below") {
                Some(bound) => HoleDomain::LessThan(BitVec::from_u64(bound.into(), width)),
                None => HoleDomain::AnyConstant,
            };
            builder.hole(&format!("{}.{hole}", self.prefix), width, domain)
        } else if matches!(value, "A" | "B" | "C" | "D") {
            let hole = format!("{}.{value}_SEL", self.prefix);
            select_input(builder, self.design_inputs, width(), &hole)
        } else {
            let tokens = value.replace('(', " ( ").replace(')', " ) ");
            self.expr(builder, &mut tokens.split_whitespace())
                .unwrap_or_else(|| panic!("`{value}` is not a port expression"))
        }
    }

    /// Evaluates the next port expression in `tokens` — a named node,
    /// `(bv VALUE WIDTH)`, or `(concat HIGH … LOW)` — or returns `None` at a
    /// closing parenthesis.
    fn expr<'t>(
        &self,
        builder: &mut ProgBuilder,
        tokens: &mut impl Iterator<Item = &'t str>,
    ) -> Option<NodeId> {
        let node = match tokens.next()? {
            ")" => return None,
            "(" => match tokens.next() {
                Some("bv") => {
                    let mut literal = || -> u64 {
                        tokens.next().and_then(|t| t.parse().ok()).expect("`(bv VALUE WIDTH)`")
                    };
                    let value = literal();
                    let node = builder.constant_u64(value, literal() as u32);
                    assert_eq!(tokens.next(), Some(")"), "`(bv VALUE WIDTH)` takes two numbers");
                    node
                }
                Some("concat") => {
                    let mut node = self.expr(builder, tokens).expect("`(concat)` needs operands");
                    while let Some(low) = self.expr(builder, tokens) {
                        node = builder.op2(BvOp::Concat, node, low);
                    }
                    node
                }
                other => panic!("unknown port expression operator {other:?}"),
            },
            name => *self.named.get(name).unwrap_or_else(|| panic!("`{name}` names no node")),
        };
        Some(node)
    }
}

/// The value at `key` of a shipped description entry.
fn field<'a>(entry: &'a Yaml, key: &str) -> &'a Yaml {
    entry.get(key).unwrap_or_else(|| panic!("description entry lacks `{key}`"))
}

/// The string at `key` of a shipped description entry.
fn text<'a>(entry: &'a Yaml, key: &str) -> &'a str {
    field(entry, key).as_str().unwrap_or_else(|| panic!("description `{key}` is not a string"))
}

/// The non-negative number at `key`, if the entry gives one.
fn number(entry: &Yaml, key: &str) -> Option<u32> {
    entry.get(key)?.as_int().and_then(|n| u32::try_from(n).ok())
}

/// The list at `key`, or an empty list if the entry gives none.
fn list<'a>(entry: &'a Yaml, key: &str) -> &'a [Yaml] {
    entry.get(key).and_then(Yaml::as_list).unwrap_or(&[])
}

/// Reserves a disjoint node-id region for the semantics sub-program of the
/// `instance_index`-th primitive in a sketch. Outer sketch programs are tiny
/// (well under a million nodes), so regions starting at one million never collide.
fn semantics_id_offset(instance_index: usize) -> u32 {
    1_000_000 + (instance_index as u32) * 100_000
}

/// Builds a hole-selected multiplexer that drives a primitive data port from one of
/// the design's inputs (or constant zero), zero-extended to the port width. The
/// selector is the hole `hole_name`, created only when there is a choice to make.
fn select_input(
    builder: &mut ProgBuilder,
    design_inputs: &[(String, NodeId, u32)],
    port_width: u32,
    hole_name: &str,
) -> NodeId {
    let mut options: Vec<NodeId> = vec![builder.constant_u64(0, port_width)];
    for (_, node, width) in design_inputs {
        let resized = if *width == port_width {
            *node
        } else if *width < port_width {
            builder.zext(*node, port_width)
        } else {
            builder.extract(*node, port_width - 1, 0)
        };
        options.push(resized);
    }
    if options.len() == 1 {
        return options[0];
    }
    let bits = (usize::BITS - (options.len() - 1).leading_zeros()).max(1);
    // When the option count fills the selector width exactly, every selector value is
    // legal; otherwise restrict to the populated range (the bound fits in `bits`
    // because the count is then strictly below 2^bits).
    let domain = if options.len() == (1usize << bits) {
        HoleDomain::AnyConstant
    } else {
        HoleDomain::LessThan(BitVec::from_u64(options.len() as u64, bits))
    };
    let sel = builder.hole(hole_name, bits, domain);
    // options[k] selected when sel == k; nested if-then-else chain.
    let mut result = options[0];
    for (k, &opt) in options.iter().enumerate().skip(1) {
        let kc = builder.constant_u64(k as u64, bits);
        let is_k = builder.op2(BvOp::Eq, sel, kc);
        result = builder.mux(is_k, opt, result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{Node, StreamInputs};
    use std::collections::BTreeMap;

    #[test]
    fn all_architecture_descriptions_parse_and_report_sloc() {
        let archs = Architecture::all();
        assert_eq!(archs.len(), 4);
        for arch in &archs {
            assert!(arch.description_sloc() > 5, "{} description too small", arch.name());
            assert!(!arch.implementations().is_empty(), "{} lists no implementations", arch.name());
        }
        // SOFA is the smallest description, as in the paper.
        let sofa = Architecture::sofa();
        for other in Architecture::with_dsps() {
            assert!(sofa.description_sloc() < other.description_sloc());
        }
    }

    #[test]
    fn dsp_capability_matrix_matches_the_paper() {
        assert!(Architecture::xilinx_ultrascale_plus().has_dsp());
        assert!(Architecture::lattice_ecp5().has_dsp());
        assert!(Architecture::intel_cyclone10lp().has_dsp());
        assert!(!Architecture::sofa().has_dsp());
        let modules: Vec<_> =
            Architecture::all().iter().map(|a| a.dsp_module().map(str::to_string)).collect();
        assert_eq!(
            modules,
            [Some("DSP48E2"), Some("MULT18X18C_ALU54A"), Some("cyclone10lp_mac_mult"), None]
                .map(|m| m.map(str::to_string))
        );
        for arch in Architecture::with_dsps() {
            assert_eq!(arch.dsp_max_operand_width(), Some(18), "{}", arch.name());
        }
        assert_eq!(Architecture::sofa().dsp_max_operand_width(), None);
        assert_eq!(Architecture::xilinx_ultrascale_plus().lut_size(), 6);
        assert_eq!(Architecture::sofa().lut_size(), 4);
    }

    #[test]
    fn dsp_instantiation_produces_a_well_formed_sketch() {
        // Four 8-bit inputs: each data operand selects among zero and the four
        // inputs, so its selector is 3 bits wide and stays below 5.
        let select = HoleDomain::LessThan(BitVec::from_u64(5, 3));
        let any = HoleDomain::AnyConstant;
        let expected: [&[(&str, u32, HoleDomain)]; 3] = [
            &[
                ("A_SEL", 3, select.clone()),
                ("B_SEL", 3, select.clone()),
                ("C_SEL", 3, select.clone()),
                ("D_SEL", 3, select.clone()),
                ("CARRYIN", 1, any.clone()),
                ("INMODE", 5, any.clone()),
                ("OPMODE", 9, any.clone()),
                ("ALUMODE", 4, any.clone()),
                ("AREG", 1, any.clone()),
                ("BREG", 1, any.clone()),
                ("CREG", 1, any.clone()),
                ("DREG", 1, any.clone()),
                ("ADREG", 1, any.clone()),
                ("MREG", 1, any.clone()),
                ("PREG", 1, any.clone()),
                ("AMULTSEL", 1, any.clone()),
            ],
            &[
                ("A_SEL", 3, select.clone()),
                ("B_SEL", 3, select.clone()),
                ("C_SEL", 3, select.clone()),
                ("REG_INPUT", 1, any.clone()),
                ("REG_C", 1, any.clone()),
                ("REG_PIPE", 1, any.clone()),
                ("REG_OUTPUT", 1, any.clone()),
                ("ALU_OP", 3, HoleDomain::LessThan(BitVec::from_u64(7, 3))),
            ],
            &[
                ("A_SEL", 3, select.clone()),
                ("B_SEL", 3, select),
                ("REGISTER_A", 1, any.clone()),
                ("REGISTER_B", 1, any.clone()),
                ("REGISTER_OUT", 1, any),
            ],
        ];
        for (arch, expected) in Architecture::with_dsps().into_iter().zip(expected) {
            let mut b = ProgBuilder::new("sketch");
            let mut inputs = Vec::new();
            for name in ["a", "b", "c", "d"] {
                let id = b.input(name, 8);
                inputs.push((name.to_string(), id, 8));
            }
            let dsp = arch.instantiate_dsp(&mut b, &inputs, 0).expect("has a DSP");
            let out = b.extract(dsp.node, 7, 0);
            let sketch = b.finish(out);
            assert!(sketch.well_formed().is_ok(), "{}: {:?}", arch.name(), sketch.well_formed());
            let holes: Vec<_> =
                sketch.holes().into_iter().map(|h| (h.name, h.width, h.domain)).collect();
            let mut expected: Vec<_> =
                expected.iter().map(|(n, w, d)| (format!("dsp0.{n}"), *w, d.clone())).collect();
            expected.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(holes, expected, "{}", arch.name());
        }
    }

    #[test]
    fn instances_bind_exactly_their_semantics_free_variables() {
        for arch in Architecture::all() {
            let mut b = ProgBuilder::new("sketch");
            let x = b.input("x", 8);
            let bit = b.extract(x, 0, 0);
            let mut prims = vec![arch.instantiate_lut(&mut b, &[bit], 0)];
            let dsp = arch.instantiate_dsp(&mut b, &[("x".to_string(), x, 8)], 1);
            prims.extend(dsp.as_ref().map(|d| d.node));
            let sketch = b.finish(prims[0]);
            for id in prims {
                let Some(Node::Prim(prim)) = sketch.node(id) else {
                    panic!("{id} is no primitive")
                };
                let semantics = primitives::semantics(&prim.module).unwrap();
                let bound: Vec<_> = prim
                    .bindings
                    .iter()
                    .map(|(name, &node)| (name.clone(), sketch.width(node)))
                    .collect();
                assert_eq!(bound, semantics.free_vars(), "{} {}", arch.name(), prim.module);
                assert_eq!(sketch.width(id), semantics.width(semantics.root()));
            }
            if let Some(dsp) = dsp {
                assert_eq!(dsp.output_width, sketch.width(dsp.node), "{}", arch.name());
            }
        }
    }

    #[test]
    fn xilinx_dsp_sketch_can_express_the_running_example_when_filled() {
        // Fill the holes by hand with the configuration computing ((a+b)*c)&d and
        // check it against direct evaluation. Port muxes: D <- a (sel 1), A <- b
        // (sel 2), B <- c (sel 3), C <- d (sel 4).
        let arch = Architecture::xilinx_ultrascale_plus();
        let mut b = ProgBuilder::new("sketch");
        let mut inputs = Vec::new();
        for name in ["a", "b", "c", "d"] {
            let id = b.input(name, 8);
            inputs.push((name.to_string(), id, 8));
        }
        let dsp = arch.instantiate_dsp(&mut b, &inputs, 0).unwrap();
        let out = b.extract(dsp.node, 7, 0);
        let sketch = b.finish(out);

        let mut asg: BTreeMap<String, BitVec> = BTreeMap::new();
        asg.insert("dsp0.D_SEL".into(), BitVec::from_u64(1, 3));
        asg.insert("dsp0.A_SEL".into(), BitVec::from_u64(2, 3));
        asg.insert("dsp0.B_SEL".into(), BitVec::from_u64(3, 3));
        asg.insert("dsp0.C_SEL".into(), BitVec::from_u64(4, 3));
        asg.insert("dsp0.CARRYIN".into(), BitVec::from_u64(0, 1));
        asg.insert("dsp0.INMODE".into(), BitVec::from_u64(0, 5));
        // X = M, Y = 0, Z = C; ALU logic mode AND (ALUMODE = 0b0100).
        asg.insert("dsp0.OPMODE".into(), BitVec::from_u64(0b0_011_00_01, 9));
        asg.insert("dsp0.ALUMODE".into(), BitVec::from_u64(0b0100, 4));
        for reg in ["AREG", "BREG", "CREG", "DREG", "ADREG", "MREG", "PREG"] {
            asg.insert(format!("dsp0.{reg}"), BitVec::from_u64(0, 1));
        }
        asg.insert("dsp0.AMULTSEL".into(), BitVec::from_u64(1, 1));
        let filled = sketch.fill_holes(&asg).unwrap().simplified();
        assert!(filled.is_structural());

        let env = StreamInputs::from_constants(
            [("a", 3u64), ("b", 5), ("c", 7), ("d", 0x3F)]
                .into_iter()
                .map(|(n, v)| (n.to_string(), BitVec::from_u64(v, 8))),
        );
        let expected = ((3 + 5) * 7) & 0x3F;
        assert_eq!(filled.interp(&env, 0).unwrap(), BitVec::from_u64(expected, 8));
    }

    #[test]
    fn lut_instantiation_works_on_every_architecture() {
        for arch in Architecture::all() {
            let mut b = ProgBuilder::new("lut_sketch");
            let x = b.input("x", 1);
            let y = b.input("y", 1);
            let lut = arch.instantiate_lut(&mut b, &[x, y], 0);
            let prog = b.finish(lut);
            assert!(prog.well_formed().is_ok(), "{}", arch.name());
            assert_eq!(prog.width(prog.root()), 1);
            assert_eq!(prog.holes().len(), 1);
            // Fill the LUT with an XOR truth table and check it behaves as XOR.
            let init_width = 1 << arch.lut_size();
            let hole = &prog.holes()[0];
            let mut truth = BitVec::zeros(init_width);
            // Entries where exactly one of the two low address bits is set.
            truth = truth.with_bit(1, true).with_bit(2, true);
            let mut asg = BTreeMap::new();
            asg.insert(hole.name.clone(), truth);
            let filled = prog.fill_holes(&asg).unwrap();
            for (xv, yv) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
                let env = StreamInputs::from_constants([
                    ("x".to_string(), BitVec::from_u64(xv, 1)),
                    ("y".to_string(), BitVec::from_u64(yv, 1)),
                ]);
                assert_eq!(
                    filled.interp(&env, 0).unwrap(),
                    BitVec::from_bool((xv ^ yv) == 1),
                    "{} x={xv} y={yv}",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn description_sizes_track_the_papers_ordering() {
        // Paper §5.2: SOFA (20) < Intel (178) < Xilinx (185) < Lattice (240).
        // Our descriptions are smaller but must preserve SOFA < Intel < {Xilinx, Lattice}.
        let sofa = Architecture::sofa().description_sloc();
        let intel = Architecture::intel_cyclone10lp().description_sloc();
        let xilinx = Architecture::xilinx_ultrascale_plus().description_sloc();
        let lattice = Architecture::lattice_ecp5().description_sloc();
        assert!(sofa < intel);
        assert!(intel < xilinx);
        assert!(intel < lattice);
    }
}
