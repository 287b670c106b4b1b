//! # argus — termination detection in logic programs using argument sizes
//!
//! A complete Rust implementation of **Kirack Sohn & Allen Van Gelder,
//! “Termination Detection in Logic Programs using Argument Sizes”
//! (PODS 1991)**, together with every substrate the method depends on and
//! the baselines it is compared against.
//!
//! The method proves that top-down (Prolog-style) evaluation of a logic
//! procedure terminates by finding, per predicate, a nonnegative linear
//! combination of *bound-argument sizes* that strictly decreases on every
//! recursive call. The search for the combination is reduced — via LP
//! duality and Fourier–Motzkin elimination — to a linear feasibility
//! problem solved exactly.
//!
//! ## Quick start
//!
//! ```
//! use argus::prelude::*;
//!
//! let report = analyze_source(
//!     "append([], Ys, Ys).\n\
//!      append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
//!     "append/3",
//!     "bff", // first argument bound, others free
//! ).unwrap();
//! assert_eq!(report.verdict, Verdict::Terminates);
//! println!("{report}");
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`linear`] | `argus-linear` | big integers, exact rationals, Fourier–Motzkin, simplex, polyhedra |
//! | [`logic`] | `argus-logic` | terms, rules, parser, unification, SCCs, modes, adornment |
//! | [`sizerel`] | `argus-sizerel` | inter-argument size-relation inference (\[VG90\]) |
//! | [`transform`] | `argus-transform` | equality elimination, predicate splitting, safe unfolding (App. A) |
//! | [`core`] | `argus-core` | the termination analysis itself (§3–§6, App. C/D), engine trait + racing portfolio |
//! | [`sct`] | `argus-sct` | size-change termination engine (LJB 2001) over the same size relations |
//! | [`diag`] | `argus-diag` | span-aware lint passes and diagnostic renderers (`argus lint`) |
//! | [`baselines`] | `argus-baselines` | Naish/SU, UVG88, Brodsky–Sagiv-style comparators |
//! | [`interp`] | `argus-interp` | SLD interpreter + bottom-up evaluator (validation) |
//! | [`corpus`] | `argus-corpus` | the benchmark corpus with ground-truth labels |
//! | [`planner`] | (this crate) | capture-rule query planning: top-down when proved, bottom-up otherwise |

#![warn(missing_docs)]

pub mod planner;

pub use argus_baselines as baselines;
pub use argus_core as core;
pub use argus_corpus as corpus;
pub use argus_diag as diag;
pub use argus_fuzz as fuzz;
pub use argus_interp as interp;
pub use argus_linear as linear;
pub use argus_logic as logic;
pub use argus_lsp as lsp;
pub use argus_sct as sct;
pub use argus_serve as serve;
pub use argus_sizerel as sizerel;
pub use argus_transform as transform;

/// The things almost every user needs.
pub mod prelude {
    pub use argus_core::{
        analyze, analyze_source, infer_conditions, infer_conditions_for, AnalysisOptions,
        BackwardsOptions, DeltaMode, InferenceReport, SccOutcome, TerminationCondition,
        TerminationReport, Verdict,
    };
    pub use argus_diag::{lint_program, lint_source, Diagnostic, LintOptions, Severity};
    pub use argus_logic::{parser::parse_program, Adornment, PredKey, Program};
    pub use argus_sizerel::{infer_size_relations, InferOptions, SizeRelations};
}
