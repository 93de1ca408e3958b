//! Multi-vendor trust quorums: a superlight client requiring k-of-n
//! distinct TEE domains to agree (Section 6's "avoid relying solely on
//! Intel").

use dcert::chain::FullNode;
use dcert::core::{
    expected_measurement, CertError, CertificateIssuer, NetMessage, SuperlightClient, SyncOutcome,
    TrustDomain,
};
use dcert::primitives::hash::Address;
use dcert::query::sp::IndexKind;
use dcert::sgx::{AttestationService, CostModel};
use dcert::world::World;

/// Builds a second, independent trust domain (its own "vendor" attestation
/// service) running a CI on the same chain, with the world SP's verifiers.
fn second_domain(world: &World) -> (AttestationService, CertificateIssuer) {
    let mut ias = AttestationService::with_seed([0xB7; 32]);
    let ci = CertificateIssuer::new(
        [0xB8; 32],
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        world.sp.verifiers(),
        &mut ias,
        CostModel::trustzone(),
    )
    .unwrap();
    (ias, ci)
}

/// A client over the world's domain and the second one, at `threshold`.
fn quorum(world: &World, second_ias: &AttestationService, threshold: usize) -> SuperlightClient {
    let domains = vec![
        TrustDomain::new(world.ias.public_key(), expected_measurement()),
        TrustDomain::new(second_ias.public_key(), expected_measurement()),
    ];
    SuperlightClient::with_domains(domains, threshold).unwrap()
}

const SHORT_OF_TWO: CertError = CertError::BelowThreshold { have: 1, need: 2 };

#[test]
fn two_of_two_quorum_validates_agreeing_cis() {
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 2);

    for height in 1..=3u64 {
        let block = world.miner.mine(Vec::new(), height).unwrap();
        let (cert_a, _) = world.ci.certify_block(&block).unwrap();
        let (cert_b, _) = second_ci.certify_block(&block).unwrap();
        assert_eq!(
            client.validate_chain(&block.header, &cert_a),
            Err(SHORT_OF_TWO)
        );
        client.validate_chain(&block.header, &cert_b).unwrap();
        assert_eq!(client.height(), Some(height));
    }
}

#[test]
fn an_early_relay_does_not_wedge_the_quorum() {
    // One domain's certificate arrives alone first; it must move nothing,
    // so the full quorum for the same block still adopts it.
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 2);

    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert_a, _) = world.ci.certify_block(&block).unwrap();
    let (cert_b, _) = second_ci.certify_block(&block).unwrap();
    assert_eq!(
        client.validate_chain(&block.header, &cert_a),
        Err(SHORT_OF_TWO)
    );
    assert_eq!(client.height(), None);
    assert_eq!(
        client.validate_chain(&block.header, &cert_a),
        Err(SHORT_OF_TWO)
    );
    client.validate_chain(&block.header, &cert_b).unwrap();
    assert_eq!(client.height(), Some(1));
    assert_eq!(client.latest_header(), Some(&block.header));
}

#[test]
fn augmented_certificates_reach_a_quorum_over_the_network() {
    // The augmented scheme publishes no block certificate: each domain's
    // index certificate vouches for header and index digest at once.
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 2);

    for height in 1..=2u64 {
        let block = world.mine(Vec::new());
        let inputs = world.sp.stage_block(&block).unwrap();
        let (certs_a, _) = world.ci.certify_augmented(&block, &inputs).unwrap();
        let (certs_b, _) = second_ci.certify_augmented(&block, &inputs).unwrap();
        world.sp.advance(Some(&certs_a)).unwrap();
        let digest = world.sp.digest("history").unwrap();
        let message = |cert| NetMessage::IndexCert {
            header: block.header.clone(),
            index: "history".to_owned(),
            digest,
            cert,
        };
        let first = message(certs_a[0].clone());
        let before = client.height();
        assert_eq!(client.on_message(&first), SyncOutcome::Pending);
        assert_eq!(client.on_message(&first), SyncOutcome::Pending);
        assert_eq!(client.height(), before);
        assert_eq!(
            client.on_message(&message(certs_b[0].clone())),
            SyncOutcome::Adopted
        );
        assert_eq!(client.height(), Some(height));
        assert_eq!(client.index_digest("history"), Some(digest));
    }
}

#[test]
fn one_of_two_quorum_tolerates_a_missing_vendor() {
    let mut world = World::pow(&[]);
    let (second_ias, _) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 1);

    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert_a, _) = world.ci.certify_block(&block).unwrap();
    client.validate_chain(&block.header, &cert_a).unwrap();
    assert_eq!(client.height(), Some(1));
}

#[test]
fn compromised_vendor_cannot_forge_alone() {
    // A rogue "vendor" (its own IAS) certifies a forged branch; a 2-of-2
    // quorum must reject it even though the rogue domain validates.
    let world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 2);

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

    assert_eq!(
        client.validate_chain(&forged.header, &rogue_cert),
        Err(SHORT_OF_TWO)
    );
    assert_eq!(client.height(), None);
}

#[test]
fn mismatched_certificates_do_not_count_twice() {
    // One domain's certificate offered twice is still one domain: a 2-of-2
    // client stays pending, and a certificate over another header does
    // not count toward this one.
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 2);

    let b1 = world.miner.mine(Vec::new(), 1).unwrap();
    let (a1, _) = world.ci.certify_block(&b1).unwrap();
    let offer = |cert| NetMessage::BlockCert {
        header: b1.header.clone(),
        cert,
    };
    assert_eq!(client.on_message(&offer(a1.clone())), SyncOutcome::Pending);
    assert_eq!(client.on_message(&offer(a1.clone())), SyncOutcome::Pending);
    assert_eq!(client.height(), None);

    // The second domain's certificate for block 2, offered as block 1's:
    // both domains refuse it, so it counts for neither.
    let b2 = world.miner.mine(Vec::new(), 2).unwrap();
    let (c1, _) = second_ci.certify_block(&b1).unwrap();
    let (c2, _) = second_ci.certify_block(&b2).unwrap();
    assert!(matches!(
        client.on_message(&offer(c2)),
        SyncOutcome::Rejected(_)
    ));
    assert_eq!(client.height(), None);
    assert_eq!(client.on_message(&offer(c1)), SyncOutcome::Adopted);
    assert_eq!(client.height(), Some(1));
}

#[test]
fn quorum_enforces_chain_selection() {
    let mut world = World::pow(&[]);
    let (second_ias, mut second_ci) = second_domain(&world);
    let mut client = quorum(&world, &second_ias, 2);

    let b1 = world.miner.mine(Vec::new(), 1).unwrap();
    let (a1, _) = world.ci.certify_block(&b1).unwrap();
    let (c1, _) = second_ci.certify_block(&b1).unwrap();
    let b2 = world.miner.mine(Vec::new(), 2).unwrap();
    let (a2, _) = world.ci.certify_block(&b2).unwrap();
    let (c2, _) = second_ci.certify_block(&b2).unwrap();

    assert_eq!(client.validate_chain(&b2.header, &a2), Err(SHORT_OF_TWO));
    client.validate_chain(&b2.header, &c2).unwrap();
    // Rolling back to block 1 is refused, by each domain's certificate.
    for cert in [a1, c1] {
        assert_eq!(
            client.validate_chain(&b1.header, &cert),
            Err(CertError::ChainSelection {
                current: 2,
                offered: 1
            })
        );
    }
    assert_eq!(client.latest_header(), Some(&b2.header));
}

#[test]
fn zero_threshold_is_a_config_bug() {
    // So is one above the number of domains: both are typed refusals.
    let world = World::pow(&[]);
    let (second_ias, _) = second_domain(&world);
    let domains = || {
        vec![
            TrustDomain::new(world.ias.public_key(), expected_measurement()),
            TrustDomain::new(second_ias.public_key(), expected_measurement()),
        ]
    };
    for (domains, threshold) in [(domains(), 0), (domains(), 3), (Vec::new(), 1)] {
        let count = domains.len();
        assert_eq!(
            SuperlightClient::with_domains(domains, threshold).unwrap_err(),
            CertError::BadThreshold {
                threshold,
                domains: count
            }
        );
    }
}
