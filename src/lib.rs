//! Umbrella package hosting the workspace-level examples and integration tests.

#![forbid(unsafe_code)]
