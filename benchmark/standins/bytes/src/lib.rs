//! Stand-in for `bytes`: the workspace declares the dependency and uses
//! nothing from it (ROADMAP item 1a), so this crate is empty.
