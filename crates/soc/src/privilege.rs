//! The voted privilege gate — the paper's citation \[55\] (Gouveia et al.,
//! *Behind the last line of defense: Surviving SoC faults and intrusions*).
//!
//! §II-E: "privilege change must remain a trusted operation executed
//! consensually and enforced by a trusted-trustworthy component."
//!
//! The gate is a tiny hardware vote checker: a privileged operation
//! (reconfigure a region, change an ICAP grant, rejuvenate a tile) executes
//! only when a quorum of kernel replicas submits matching HMAC-signed votes
//! over the operation digest. A minority of compromised kernels can
//! neither push their own operation through nor forge votes; and because
//! only the *gate's* principal holds ICAP write rights, bypassing the gate
//! is structurally impossible. This module's tests and the root package's
//! `tests/voted_reconfig.rs` pin it (§II-E).

use crate::tile::TileId;
use rsoc_crypto::{sha256, MacKey, Tag};
use rsoc_fpga::{Bitstream, BlockId, Principal, ReconfigEngine, ReconfigError, Region};
use rsoc_hybrid::{A2m, A2mCert};
use std::collections::BTreeMap;
use std::fmt;

/// Operations that require consensual approval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrivilegedOp {
    /// Write `bitstream` into `region` and enable it as `block`.
    Reconfigure {
        /// Target region.
        region: Region,
        /// Block identity after enabling.
        block: BlockId,
        /// The full bitstream to install.
        bitstream: Bitstream,
    },
    /// Grant a principal write rights over a region.
    Grant {
        /// Beneficiary.
        principal: Principal,
        /// Region granted.
        region: Region,
    },
    /// Revoke a principal's rights over a region.
    Revoke {
        /// Principal losing access.
        principal: Principal,
        /// Region revoked.
        region: Region,
    },
    /// Mark a tile for rejuvenation (the manager performs the restart).
    RejuvenateTile {
        /// Which tile.
        tile: TileId,
    },
}

impl PrivilegedOp {
    /// Canonical digest of the operation (what votes sign).
    pub fn digest(&self) -> [u8; 32] {
        let mut bytes = Vec::new();
        match self {
            PrivilegedOp::Reconfigure { region, block, bitstream } => {
                bytes.extend_from_slice(b"RECONF|");
                bytes.extend_from_slice(&region.start.to_le_bytes());
                bytes.extend_from_slice(&region.len.to_le_bytes());
                bytes.extend_from_slice(&block.to_le_bytes());
                bytes.extend_from_slice(&bitstream.crc.to_le_bytes());
                bytes.extend_from_slice(&bitstream.tag.0);
            }
            PrivilegedOp::Grant { principal, region } => {
                bytes.extend_from_slice(b"GRANT|");
                bytes.extend_from_slice(&principal.0.to_le_bytes());
                bytes.extend_from_slice(&region.start.to_le_bytes());
                bytes.extend_from_slice(&region.len.to_le_bytes());
            }
            PrivilegedOp::Revoke { principal, region } => {
                bytes.extend_from_slice(b"REVOKE|");
                bytes.extend_from_slice(&principal.0.to_le_bytes());
                bytes.extend_from_slice(&region.start.to_le_bytes());
                bytes.extend_from_slice(&region.len.to_le_bytes());
            }
            PrivilegedOp::RejuvenateTile { tile } => {
                bytes.extend_from_slice(b"REJUV|");
                bytes.extend_from_slice(&tile.0.to_le_bytes());
            }
        }
        sha256(&bytes)
    }
}

/// A kernel replica's signed approval of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Voting kernel replica.
    pub kernel: u32,
    /// Digest of the approved operation.
    pub op_digest: [u8; 32],
    /// HMAC over `(kernel, op_digest)` under the kernel's vote key.
    pub tag: Tag,
}

impl Vote {
    /// Signs an approval of `op` as kernel `kernel` with `key`.
    pub fn sign(kernel: u32, key: &MacKey, op: &PrivilegedOp) -> Vote {
        let digest = op.digest();
        Vote { kernel, op_digest: digest, tag: key.mac(&payload(kernel, &digest)) }
    }
}

fn payload(kernel: u32, digest: &[u8; 32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + 32);
    p.extend_from_slice(&kernel.to_le_bytes());
    p.extend_from_slice(digest);
    p
}

/// Gate errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateError {
    /// Fewer than `threshold` *distinct, valid* matching votes.
    InsufficientVotes,
    /// The approved operation failed to execute (e.g., ICAP rejection).
    Execution(ReconfigError),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::InsufficientVotes => write!(f, "insufficient matching votes"),
            GateError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for GateError {}

/// The trusted vote checker + executor.
///
/// Every approved operation is appended to an [`A2m`] attested append-only
/// log, so even a later full compromise of the management plane cannot
/// rewrite the history of privilege changes — auditors replay the digests
/// against the log certificate (see [`PrivilegeGate::audit_cert`]).
#[derive(Debug)]
pub struct PrivilegeGate {
    keys: BTreeMap<u32, MacKey>,
    threshold: usize,
    principal: Principal,
    approved: u64,
    denied: u64,
    audit: A2m,
    audit_log: u32,
    audit_key: MacKey,
    audit_digests: Vec<[u8; 32]>,
}

impl PrivilegeGate {
    /// The principal identity the gate uses at the ICAP. Provision the ICAP
    /// so that **only** this principal holds write rights.
    pub const GATE_PRINCIPAL: Principal = Principal(0xFFFF);

    /// Creates a gate for kernels `0..n` with vote quorum `threshold`.
    ///
    /// # Panics
    /// Panics if `threshold` is zero or exceeds the kernel count.
    pub fn new(seed: u64, kernels: u32, threshold: usize) -> Self {
        assert!(threshold >= 1 && threshold <= kernels as usize, "bad threshold");
        let keys =
            (0..kernels).map(|k| (k, MacKey::derive(seed, &format!("kernel-vote-{k}")))).collect();
        let audit_key = MacKey::derive(seed, "gate-audit");
        let mut audit = A2m::new(0xA0D1, audit_key.clone());
        let audit_log = audit.create_log();
        PrivilegeGate {
            keys,
            threshold,
            principal: Self::GATE_PRINCIPAL,
            approved: 0,
            denied: 0,
            audit,
            audit_log,
            audit_key,
            audit_digests: Vec::new(),
        }
    }

    /// The vote key of kernel `k` (provisioning-time export for the kernel
    /// replicas; experiments leak it to compromised kernels on purpose).
    pub fn kernel_key(&self, kernel: u32) -> Option<&MacKey> {
        self.keys.get(&kernel)
    }

    /// Vote quorum.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Operations approved / denied so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.approved, self.denied)
    }

    /// Certificate over the current end of the tamper-evident audit log.
    pub fn audit_cert(&self) -> A2mCert {
        self.audit.end(self.audit_log).expect("gate audit log always exists")
    }

    /// Verifies that `claimed_history` (operation digests, in order) is
    /// exactly what this gate approved, against `cert`.
    pub fn audit_verify(&self, cert: &A2mCert, claimed_history: &[[u8; 32]]) -> bool {
        let values: Vec<&[u8]> = claimed_history.iter().map(|d| d.as_slice()).collect();
        A2m::verify_content(&self.audit_key, cert, &values)
    }

    /// The digests of all approved operations (the true history, for
    /// comparison in audits and tests).
    pub fn approved_history(&self) -> &[[u8; 32]] {
        &self.audit_digests
    }

    /// Checks a vote set against `op`: at least `threshold` votes from
    /// *distinct known kernels*, each with a valid tag over this exact
    /// operation digest.
    pub fn check(&self, op: &PrivilegedOp, votes: &[Vote]) -> bool {
        let digest = op.digest();
        let mut valid: Vec<u32> = votes
            .iter()
            .filter(|v| v.op_digest == digest)
            .filter(|v| {
                self.keys
                    .get(&v.kernel)
                    .map(|k| k.verify(&payload(v.kernel, &digest), &v.tag))
                    .unwrap_or(false)
            })
            .map(|v| v.kernel)
            .collect();
        valid.sort_unstable();
        valid.dedup();
        valid.len() >= self.threshold
    }

    /// Checks votes and, if approved, executes `op` against `engine`.
    ///
    /// # Errors
    /// [`GateError::InsufficientVotes`] when the quorum check fails;
    /// [`GateError::Execution`] when the approved operation itself fails.
    pub fn execute(
        &mut self,
        engine: &mut ReconfigEngine,
        op: &PrivilegedOp,
        votes: &[Vote],
    ) -> Result<(), GateError> {
        if !self.check(op, votes) {
            self.denied += 1;
            return Err(GateError::InsufficientVotes);
        }
        self.approved += 1;
        let digest = op.digest();
        self.audit.append(self.audit_log, &digest).expect("gate audit log always exists");
        self.audit_digests.push(digest);
        match op {
            PrivilegedOp::Reconfigure { region, block, bitstream } => engine
                .reconfigure(self.principal, *region, bitstream, *block)
                .map(|_| ())
                .map_err(GateError::Execution),
            PrivilegedOp::Grant { principal, region } => {
                engine.icap_mut().allow(*principal, *region);
                Ok(())
            }
            PrivilegedOp::Revoke { principal, region } => {
                engine.icap_mut().revoke(*principal, *region);
                Ok(())
            }
            PrivilegedOp::RejuvenateTile { .. } => Ok(()), // effect applied by the manager
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsoc_fpga::{FpgaFabric, Icap};

    fn setup(kernels: u32, threshold: usize) -> (PrivilegeGate, ReconfigEngine, MacKey) {
        let gate = PrivilegeGate::new(11, kernels, threshold);
        let bs_key = MacKey::derive(11, "bitstreams");
        let mut icap = Icap::new(bs_key.clone());
        // Only the gate may write — the resilient provisioning.
        icap.allow(PrivilegeGate::GATE_PRINCIPAL, Region::new(0, 16));
        let engine = ReconfigEngine::new(FpgaFabric::new(4, 4, 4), icap);
        (gate, engine, bs_key)
    }

    fn reconf_op(bs_key: &MacKey) -> PrivilegedOp {
        let region = Region::new(0, 2);
        PrivilegedOp::Reconfigure {
            region,
            block: 7,
            bitstream: Bitstream::for_variant(3, region, 4, bs_key),
        }
    }

    #[test]
    fn quorum_approves_and_executes() {
        let (mut gate, mut engine, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        let votes: Vec<Vote> =
            (0..2).map(|k| Vote::sign(k, gate.kernel_key(k).unwrap(), &op)).collect();
        gate.execute(&mut engine, &op, &votes).unwrap();
        assert_eq!(engine.fabric().block_region(7), Some(Region::new(0, 2)));
        assert_eq!(gate.stats(), (1, 0));
    }

    #[test]
    fn single_compromised_kernel_cannot_push_an_op() {
        let (mut gate, mut engine, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        // One kernel (even with its real key) is below the quorum.
        let votes = vec![Vote::sign(0, gate.kernel_key(0).unwrap(), &op)];
        assert_eq!(gate.execute(&mut engine, &op, &votes), Err(GateError::InsufficientVotes));
        assert_eq!(engine.fabric().block_region(7), None);
        assert_eq!(gate.stats(), (0, 1));
    }

    #[test]
    fn forged_votes_rejected() {
        let (gate, _engine, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        let attacker_key = MacKey::derive(999, "attacker");
        let votes = vec![
            Vote::sign(0, gate.kernel_key(0).unwrap(), &op),
            Vote::sign(1, &attacker_key, &op), // forged
        ];
        assert!(!gate.check(&op, &votes));
    }

    #[test]
    fn duplicate_votes_do_not_count_twice() {
        let (gate, _, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        let v = Vote::sign(0, gate.kernel_key(0).unwrap(), &op);
        assert!(!gate.check(&op, &[v, v, v]), "one kernel, three copies ≠ quorum");
    }

    #[test]
    fn votes_bind_to_the_exact_operation() {
        let (gate, _, bs_key) = setup(3, 2);
        let op_a = reconf_op(&bs_key);
        let op_b = PrivilegedOp::RejuvenateTile { tile: TileId(1) };
        let votes: Vec<Vote> =
            (0..2).map(|k| Vote::sign(k, gate.kernel_key(k).unwrap(), &op_a)).collect();
        assert!(gate.check(&op_a, &votes));
        assert!(!gate.check(&op_b, &votes), "votes for A must not approve B");
    }

    #[test]
    fn unknown_kernel_votes_ignored() {
        let (gate, _, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        let ghost_key = MacKey::derive(11, "kernel-vote-9");
        let votes = vec![
            Vote::sign(0, gate.kernel_key(0).unwrap(), &op),
            Vote::sign(9, &ghost_key, &op), // kernel 9 doesn't exist
        ];
        assert!(!gate.check(&op, &votes));
    }

    #[test]
    fn grant_and_revoke_via_gate() {
        let (mut gate, mut engine, _) = setup(3, 2);
        let beneficiary = Principal(5);
        let region = Region::new(4, 2);
        let grant = PrivilegedOp::Grant { principal: beneficiary, region };
        let votes: Vec<Vote> =
            (0..2).map(|k| Vote::sign(k, gate.kernel_key(k).unwrap(), &grant)).collect();
        gate.execute(&mut engine, &grant, &votes).unwrap();
        assert!(engine.icap().permits(beneficiary, region));
        let revoke = PrivilegedOp::Revoke { principal: beneficiary, region };
        let votes: Vec<Vote> =
            (0..2).map(|k| Vote::sign(k, gate.kernel_key(k).unwrap(), &revoke)).collect();
        gate.execute(&mut engine, &revoke, &votes).unwrap();
        assert!(!engine.icap().permits(beneficiary, region));
    }

    #[test]
    fn direct_icap_bypass_blocked_in_resilient_provisioning() {
        // A compromised kernel tries to skip the gate entirely.
        let (_, mut engine, bs_key) = setup(3, 2);
        let region = Region::new(0, 2);
        let evil = Bitstream::for_variant(666, region, 4, &bs_key);
        let err = engine.reconfigure(Principal(0), region, &evil, 13).unwrap_err();
        assert!(matches!(err, ReconfigError::Icap(_)), "ACL must stop the bypass");
    }

    #[test]
    #[should_panic(expected = "bad threshold")]
    fn rejects_zero_threshold() {
        PrivilegeGate::new(1, 3, 0);
    }

    #[test]
    fn audit_log_records_approved_operations_only() {
        let (mut gate, mut engine, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        // A denied attempt leaves no audit entry.
        let lone = vec![Vote::sign(0, gate.kernel_key(0).unwrap(), &op)];
        let _ = gate.execute(&mut engine, &op, &lone);
        assert_eq!(gate.audit_cert().seq, 0);
        // An approved one is appended.
        let votes: Vec<Vote> =
            (0..2).map(|k| Vote::sign(k, gate.kernel_key(k).unwrap(), &op)).collect();
        gate.execute(&mut engine, &op, &votes).unwrap();
        let cert = gate.audit_cert();
        assert_eq!(cert.seq, 1);
        assert!(gate.audit_verify(&cert, gate.approved_history()));
    }

    #[test]
    fn audit_detects_rewritten_history() {
        let (mut gate, mut engine, bs_key) = setup(3, 2);
        let op = reconf_op(&bs_key);
        let votes: Vec<Vote> =
            (0..2).map(|k| Vote::sign(k, gate.kernel_key(k).unwrap(), &op)).collect();
        gate.execute(&mut engine, &op, &votes).unwrap();
        let cert = gate.audit_cert();
        // An attacker claims a different operation was approved.
        let fake = [PrivilegedOp::RejuvenateTile { tile: TileId(9) }.digest()];
        assert!(!gate.audit_verify(&cert, &fake));
        // Or claims nothing happened.
        assert!(!gate.audit_verify(&cert, &[]));
    }
}
