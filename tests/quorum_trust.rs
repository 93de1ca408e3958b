//! Multi-vendor trust quorums: a client requiring k-of-n distinct TEE
//! domains to agree (Section 6's "avoid relying solely on Intel").

use dcert::chain::FullNode;
use dcert::core::{expected_measurement, CertError, CertificateIssuer, QuorumClient, TrustDomain};
use dcert::primitives::hash::Address;
use dcert::sgx::{AttestationService, CostModel};
use dcert::world::World;

/// Builds a second, independent trust domain (its own "vendor" attestation
/// service) running a CI on the same chain.
fn second_domain(world: &World) -> (AttestationService, CertificateIssuer) {
    let mut ias = AttestationService::with_seed([0xB7; 32]);
    let ci = CertificateIssuer::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut ias,
        CostModel::trustzone(),
    )
    .unwrap();
    (ias, ci)
}

fn domains(world: &World, second_ias: &AttestationService) -> Vec<TrustDomain> {
    vec![
        TrustDomain {
            name: "intel-sgx".into(),
            ias_key: world.ias.public_key(),
            measurement: expected_measurement(),
        },
        TrustDomain {
            name: "arm-trustzone".into(),
            ias_key: second_ias.public_key(),
            measurement: expected_measurement(),
        },
    ]
}

#[test]
fn two_of_two_quorum_validates_agreeing_cis() {
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut quorum = QuorumClient::new(domains(&world, &second_ias), 2);

    for height in 1..=3u64 {
        let block = world.miner.mine(Vec::new(), height).unwrap();
        let (cert_a, _) = world.ci.certify_block(&block).unwrap();
        let (cert_b, _) = second_ci.certify_block(&block).unwrap();
        let accepted = quorum
            .validate_chain(
                &block.header,
                &[
                    ("intel-sgx".into(), cert_a),
                    ("arm-trustzone".into(), cert_b),
                ],
            )
            .unwrap();
        assert_eq!(accepted, 2);
    }
    assert_eq!(quorum.height(), Some(3));
}

#[test]
fn quorum_fails_with_only_one_vendor() {
    let mut world = World::pow(&[]);
    let (second_ias, _) = second_domain(&world);
    let mut quorum = QuorumClient::new(domains(&world, &second_ias), 2);

    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert_a, _) = world.ci.certify_block(&block).unwrap();
    // Only the Intel certificate arrives: below threshold.
    assert!(quorum
        .validate_chain(&block.header, &[("intel-sgx".into(), cert_a)])
        .is_err());
    assert_eq!(quorum.height(), None);
}

#[test]
fn one_of_two_quorum_tolerates_a_missing_vendor() {
    let mut world = World::pow(&[]);
    let (second_ias, _) = second_domain(&world);
    let mut quorum = QuorumClient::new(domains(&world, &second_ias), 1);

    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert_a, _) = world.ci.certify_block(&block).unwrap();
    let accepted = quorum
        .validate_chain(&block.header, &[("intel-sgx".into(), cert_a)])
        .unwrap();
    assert_eq!(accepted, 1);
    assert_eq!(quorum.height(), Some(1));
}

#[test]
fn compromised_vendor_cannot_forge_alone() {
    // A rogue "vendor" (its own IAS) certifies a forged branch; a 2-of-2
    // quorum must reject it even though the rogue domain validates.
    let world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut quorum = QuorumClient::new(domains(&world, &second_ias), 2);

    // The rogue chain: a different miner produces an alternative block 1
    // that only the second CI certifies.
    let mut rogue_miner = FullNode::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Address::from_seed(0xBAD),
    );
    let forged = rogue_miner.mine(Vec::new(), 99).unwrap();
    let (rogue_cert, _) = second_ci.certify_block(&forged).unwrap();

    assert!(quorum
        .validate_chain(&forged.header, &[("arm-trustzone".into(), rogue_cert)])
        .is_err());
    assert_eq!(quorum.height(), None);
}

#[test]
fn mismatched_certificates_do_not_count_twice() {
    // Certificates for *different* headers cannot combine into a quorum.
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut quorum = QuorumClient::new(domains(&world, &second_ias), 2);

    let b1 = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert_a, _) = world.ci.certify_block(&b1).unwrap();
    let (cert_b1, _) = second_ci.certify_block(&b1).unwrap();
    let b2 = world.miner.mine(Vec::new(), 2).unwrap();
    let _ = cert_b1;
    // Offer b2's header with b1's certificates: both domains reject.
    let result = quorum.validate_chain(&b2.header, &[("intel-sgx".into(), cert_a.clone())]);
    assert!(matches!(result, Err(CertError::DigestMismatch)));
}

#[test]
fn quorum_enforces_chain_selection() {
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut quorum = QuorumClient::new(domains(&world, &second_ias), 2);

    let b1 = world.miner.mine(Vec::new(), 1).unwrap();
    let (a1, _) = world.ci.certify_block(&b1).unwrap();
    let (c1, _) = second_ci.certify_block(&b1).unwrap();
    let b2 = world.miner.mine(Vec::new(), 2).unwrap();
    let (a2, _) = world.ci.certify_block(&b2).unwrap();
    let (c2, _) = second_ci.certify_block(&b2).unwrap();

    quorum
        .validate_chain(
            &b2.header,
            &[("intel-sgx".into(), a2), ("arm-trustzone".into(), c2)],
        )
        .unwrap();
    // Rolling back to block 1 is refused even with a full quorum.
    assert!(matches!(
        quorum.validate_chain(
            &b1.header,
            &[("intel-sgx".into(), a1), ("arm-trustzone".into(), c1)],
        ),
        Err(CertError::ChainSelection { .. })
    ));
}

#[test]
#[should_panic(expected = "threshold")]
fn zero_threshold_is_a_config_bug() {
    let world = World::pow(&[]);
    let (second_ias, _) = second_domain(&world);
    let _ = QuorumClient::new(domains(&world, &second_ias), 0);
}
