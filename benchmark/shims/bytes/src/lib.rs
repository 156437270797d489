//! Stand-in for `bytes` 1. Four crates of the tree list it as a dependency
//! and none of them names an item of it, so there is nothing to provide.
