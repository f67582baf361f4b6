//! Pins the cache's view of the netlist layout.
//!
//! Cache keys and stored entries are [`Netlist::encode_words`] streams, so
//! a change to how a `Netlist` is held in memory must leave them equal.
//! Over a fixed corpus — the shipped KISS2 controllers in all four
//! lowering styles, the PCtrl Flexible and Auto lowerings, and a seeded
//! `random_fsm` grid — this test pins the SHA-256 of every elaborated
//! netlist's word encoding and the full compile key, and checks that
//! decoding and cloning give back the same netlist.
//!
//! Only a deliberate change to the word layout or to the key may update
//! the numbers; on a mismatch the test prints the whole table.

use super::compile_key;
use crate::options::SynthOptions;
use crate::sha256::sha256_words;
use smpctrl::rtl::{pctrl_module, PctrlStyle};
use smpctrl::MemoryConfig;
use synthir_core::format_conv::from_kiss2;
use synthir_core::random::random_fsm;
use synthir_core::FsmSpec;
use synthir_netlist::{Library, Netlist};
use synthir_rtl::{elaborate, Module};

/// `(label, SHA-256 of encode_words, compile key)`, both in hex.
const PINNED: &[(&str, &str, &str)] = &[
    (
        "traffic_light table",
        "664c43449536ab409571d56b9dbc8bd9d6f4d9fc32135bf47f4159a4d7b85528",
        "6dcd08d447a41cc54a32286b780181b853bb6642bf092ded943974b5e4a09496",
    ),
    (
        "traffic_light annotated",
        "664c43449536ab409571d56b9dbc8bd9d6f4d9fc32135bf47f4159a4d7b85528",
        "eaa9a91575e9a35d4c75a0621fc80e1b8680841972f5a76e278657d440a45099",
    ),
    (
        "traffic_light case",
        "cc9da0e6504dd8f85e50ef3458641bdca69daa8004e050f778e20e3f9e67b1b2",
        "50c56fbb916377ac0c57e52ecc2c36cfca437c14de34b5a382e482266c21779d",
    ),
    (
        "traffic_light programmable",
        "fe785f81be1be2da3245904a1df4af48b5b58fe5816e4b028f9131bebca25ebe",
        "dd695e3ad35d4690f98f1a1b9756ff21f138999a9938ea2fbea1ce8865b89dae",
    ),
    (
        "seq_detect table",
        "0c68e0f54f4a086ce18b77785a4722d7cd1d87b8d97eb403b5c044c16f42e93d",
        "e01c3a70fbf5b1962173f9314b7724880a465b3e477c36120e7f0be0682fbe97",
    ),
    (
        "seq_detect annotated",
        "0c68e0f54f4a086ce18b77785a4722d7cd1d87b8d97eb403b5c044c16f42e93d",
        "3cde818722655f5366fa47e31bc4b6993de1ef875084bebb916dfb6a3fa39787",
    ),
    (
        "seq_detect case",
        "6a74b25968b7d5999fa08ac25835f4df6eb7e9f0fbbc231240d6007a541c7702",
        "09914563709bacf6d1a5cdd15c1dbe20eda2feb9093d8a2a2ce31a6d6495ac06",
    ),
    (
        "seq_detect programmable",
        "25bf5efda7d4b985d3641b088c477718dd2ad526bbccf0bc62c379a01b9d8bad",
        "ec6e361d2e2560dbe9a92ad0e3da13ee7c4aec0245479c9bdcbb08527a6b2afa",
    ),
    (
        "elevator table",
        "fe2ddf94774962f26fc337319512738989304d7181876d6bb47f8f86eaa52652",
        "fd7d1147f82b352a7eaaa9fe54ec4f4d71b9bd101eb04b59c131c600463b81d1",
    ),
    (
        "elevator annotated",
        "fe2ddf94774962f26fc337319512738989304d7181876d6bb47f8f86eaa52652",
        "d55e60fe53bd4458135a54338c1c31e0054a6cd63f263726e3b6e63e65cfb1bd",
    ),
    (
        "elevator case",
        "1d4a9aa26badeb31ce3cd3f735f118c3e17bac61725503f87193b5deef276d44",
        "ee4a9c254abbf2ebf41b5324476cb9679664f39bad5581bd6990817e5ba3fc0e",
    ),
    (
        "elevator programmable",
        "a4cc15241cabdd8dfaead9a4eca520062885e3f4c8e44816dc99efb718b325ac",
        "eb9b6f89e754ec179a2d42287e21a3779d1ba365b5ec967bf08d1f451b1cdadf",
    ),
    (
        "dma_ctrl table",
        "9ce992da8dfa23f3b26ba0fa91a308923913609ea34db15e924652c46639a9e3",
        "539e29c2764d863d835fdf61d6ae671d76ab83a4f47ca096e19de2946704eb67",
    ),
    (
        "dma_ctrl annotated",
        "9ce992da8dfa23f3b26ba0fa91a308923913609ea34db15e924652c46639a9e3",
        "5c75714a452fb27b8c4f52ba56591353bf1d302e95cdec85605b33220fc1d1e6",
    ),
    (
        "dma_ctrl case",
        "49f8e84c745b6e79adf6d349bb353c6011572f8944534d5bab35aef9df890cb7",
        "2b5189db5a6c52894089dc9c02288d3109b4625efffe9477a2aaf1c21980d07f",
    ),
    (
        "dma_ctrl programmable",
        "23778e2cec8544875da67f628237c258f372498b323ec7a27af36cb96649520a",
        "98da9872041de9d3e94f5597044d24c3e2206cae2596db1ee3c4b2489959a5cb",
    ),
    (
        "pctrl cached flexible",
        "f390c2b1a39cfc73332ec8739adf999e99a61fc73e27a4c2d4fe2e5515fc01e6",
        "c68bdb255a67192211d05ee1d57a64de0a42bbc6daa404af0d3610924b6e86f3",
    ),
    (
        "pctrl cached auto",
        "108447aa8f86918a94fa857955ce5391c6238c4fe600e355f45fd7e4ac9a2fcd",
        "a0444a534e587b4a72f6f4236df56529705331218edb502080ef7fa390691ae6",
    ),
    (
        "pctrl uncached flexible",
        "f390c2b1a39cfc73332ec8739adf999e99a61fc73e27a4c2d4fe2e5515fc01e6",
        "c68bdb255a67192211d05ee1d57a64de0a42bbc6daa404af0d3610924b6e86f3",
    ),
    (
        "pctrl uncached auto",
        "3012ea20965a3bcaf89f17f23fcd08ada2034745239ac52ae0b66c4bfa2f5b9d",
        "f688aa78adb4c45e51b495345687ad4e8fa73942e2175ecc1664da22e2f022a5",
    ),
    (
        "random_fsm(1, 2, 2, 1) table",
        "c04e6278b085f09032614e6aa77a4d3a81e504faa96a3f70840c5b06e6621c2b",
        "47dab3ceef98a83e071b691e3bd5e5cca45faba7ff1dbf011efb8651139bff36",
    ),
    (
        "random_fsm(1, 2, 2, 1) annotated",
        "c04e6278b085f09032614e6aa77a4d3a81e504faa96a3f70840c5b06e6621c2b",
        "670f2e4f143e34a61ce297fceb64c2fa1ed92d8c77aa0da926bd26a9ad6c79eb",
    ),
    (
        "random_fsm(1, 2, 2, 1) case",
        "b8413356a51362ea2f39dabac354e30aeda646ffda614de780d981fa37f21fd2",
        "43aa9cc68f70e74d530073ad4e556a0526fcdf37df2a1b20ce64d2b870177b4f",
    ),
    (
        "random_fsm(1, 2, 2, 1) programmable",
        "52da938186754c28d75a1f38973afb656f04402bd51274cd67d2718baaf2115d",
        "9deeffa0a3274a931d32c4c76365af28c8254c4982c522a1ee7b1667b4e5d4da",
    ),
    (
        "random_fsm(2, 8, 3, 2) table",
        "09ea1946fb4f6b96a027e2ced798111a0d4395bce09d8e7f9dcc9f53575814da",
        "de094e91f5c7ada8058a356fc8c37412d2d565e4c49f4c930257f00616f24008",
    ),
    (
        "random_fsm(2, 8, 3, 2) annotated",
        "09ea1946fb4f6b96a027e2ced798111a0d4395bce09d8e7f9dcc9f53575814da",
        "6cabbb09b829ea1ae27eec054155caa2e2aa823aa84777e9a56ae2c0f4e6c043",
    ),
    (
        "random_fsm(2, 8, 3, 2) case",
        "f8944cb42b3d8cb78df2ea8d8d4488cbb61967614f33ba352d9f244abee6688b",
        "3bd25957ed4a31f9ea6043fe5b08ebdf83e0917e4f4c835d604e131a09b57e18",
    ),
    (
        "random_fsm(2, 8, 3, 2) programmable",
        "3bf4d93d704fb273c13081e7ca6364c054763cbddadb121c077bcbd643f40ebe",
        "ae50a4c5cf25b428120a541e05480c1a801ae9d77def9c5bafdbb136c7e21ac7",
    ),
    (
        "random_fsm(2, 8, 16, 3) table",
        "7f33e504fe321837379fc6e1d57e88e638c2258aac99f61f28be2ed6eb79d6c9",
        "80eda2f745fbf4c798e326d0b1d83d24ece0eaf8cf0cec84b9ee313f5d587d0f",
    ),
    (
        "random_fsm(2, 8, 16, 3) annotated",
        "7f33e504fe321837379fc6e1d57e88e638c2258aac99f61f28be2ed6eb79d6c9",
        "5c427864325c0359b38233cf3f6fcb627eaf8bcbb89cc7a85affbed7a363123c",
    ),
    (
        "random_fsm(2, 8, 16, 3) case",
        "cfd1ae7b4df95170ffbb9c9488529e11f45a868cff3bffe82b63fb52d349529a",
        "afc69b3f5dc71a0bba02ff75d9f265be206d8e3b1a18b5bad55bfa3a1ca62374",
    ),
    (
        "random_fsm(2, 8, 16, 3) programmable",
        "e9c8de436cffc34ff60fabc4d09f5a82f3966858e52c98c647f096e83c5cd088",
        "5fe19bdcf0a5f307cf461b2354d37416cf8aea687c0e0acdb9a9228c1f554461",
    ),
    (
        "random_fsm(4, 4, 5, 4) table",
        "e822239650a8942cdf42f565922b42a72b03303ab0fa53d195e7526cff0e72a5",
        "8e47cb512104cda2810044f412f98ac88f34c08d8c7b2d54ab1b43231e6a8e7d",
    ),
    (
        "random_fsm(4, 4, 5, 4) annotated",
        "e822239650a8942cdf42f565922b42a72b03303ab0fa53d195e7526cff0e72a5",
        "dcdc1954d3684f6f42c3b93f393e5946b7e40da2254812a96d6060ae72fb7c49",
    ),
    (
        "random_fsm(4, 4, 5, 4) case",
        "6bcd345ed10c439976589532e26459a642c7448192ffef44bacb634d7d9aab66",
        "c2c01c9ea00729f89712617230f3917171f7569ccbb5b467fecc32bc6b401080",
    ),
    (
        "random_fsm(4, 4, 5, 4) programmable",
        "47fbb82f62ee12601320bd150e84377c215feeebd1918b618c10e92246a7accd",
        "ef20733b221fe28996c1ee34c533d7186b7a0c2d727ef11716333ff319953751",
    ),
];

fn shipped(name: &str) -> FsmSpec {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let text = std::fs::read_to_string(format!("{dir}/{name}.kiss2")).expect("shipped benchmark");
    from_kiss2(name, &text).expect("shipped benchmark parses")
}

fn four_styles(spec: &FsmSpec) -> [(&'static str, Module); 4] {
    [
        ("table", spec.to_table_module(false)),
        ("annotated", spec.to_table_module(true)),
        ("case", spec.to_case_module()),
        ("programmable", spec.to_programmable_module()),
    ]
}

fn corpus() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for name in ["traffic_light", "seq_detect", "elevator", "dma_ctrl"] {
        for (style, m) in four_styles(&shipped(name)) {
            out.push((format!("{name} {style}"), m));
        }
    }
    for (tag, cfg) in [
        ("cached", MemoryConfig::cached()),
        ("uncached", MemoryConfig::uncached()),
    ] {
        for (flavor, style) in [
            ("flexible", PctrlStyle::Flexible),
            ("auto", PctrlStyle::Bound),
        ] {
            let m = pctrl_module(&cfg, style).expect("pctrl lowers");
            out.push((format!("pctrl {tag} {flavor}"), m));
        }
    }
    for (m, n, s, seed) in [(1, 2, 2, 1), (2, 8, 3, 2), (2, 8, 16, 3), (4, 4, 5, 4)] {
        for (style, module) in four_styles(&random_fsm(m, n, s, seed)) {
            out.push((format!("random_fsm({m}, {n}, {s}, {seed}) {style}"), module));
        }
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn encodings_and_keys_match_the_pinned_layout() {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let mut rows = Vec::new();
    for (label, module) in corpus() {
        let elab = elaborate(&module).expect("corpus elaborates");
        let nl = &elab.netlist;
        let mut words = Vec::new();
        nl.encode_words(&mut words);
        let back = Netlist::decode_words(nl.name(), &words).expect("own encoding decodes");
        assert!(&back == nl, "{label}: decode ∘ encode changed the netlist");
        assert!(&nl.clone() == nl, "{label}: a clone differs");
        rows.push((
            label,
            hex(&sha256_words(&words)),
            hex(&compile_key(&elab, &lib, &opts)),
        ));
    }
    let pinned: Vec<(String, String, String)> = PINNED
        .iter()
        .map(|&(l, w, k)| (l.to_owned(), w.to_owned(), k.to_owned()))
        .collect();
    if rows != pinned {
        for (l, w, k) in &rows {
            println!("    (\n        {l:?},\n        {w:?},\n        {k:?},\n    ),");
        }
        panic!("encodings or keys moved (the computed table is printed above)");
    }
}
