//! Golden digests of the generated inputs.
//!
//! Every experiment and the benchmark draw their requests from the
//! stream generators and [`Repository::closure_spec`]; a change to the
//! sampler's draw sequence or to closure resolution would silently give
//! every later measurement other inputs. Each test here pins an FNV-1a
//! digest of the package ids a generator yields at a fixed seed, so any
//! such change fails here first. The repository's JSON form is pinned
//! the same way, since `gen-repo` files must stay readable and stable.

use landlord_core::spec::{PackageId, Spec};
use landlord_repo::sampler::{Sampler, SelectionScheme};
use landlord_repo::{RepoConfig, Repository};
use landlord_sim::workload::{
    generate_stream, generate_user_mix_stream, generate_zipf_stream, UserMixConfig, WorkloadConfig,
    WorkloadScheme,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Digest of a sequence of id lists: each list's length, then its ids in
/// order, so that moving an id across a list boundary changes it too.
fn digest_lists<'a>(lists: impl IntoIterator<Item = &'a [PackageId]>) -> u64 {
    lists.into_iter().fold(FNV_OFFSET, |h, ids| {
        let h = fnv(h, &(ids.len() as u64).to_le_bytes());
        ids.iter().fold(h, |h, p| fnv(h, &p.0.to_le_bytes()))
    })
}

fn digest(specs: &[Spec]) -> u64 {
    digest_lists(specs.iter().map(Spec::ids))
}

fn workload(seed: u64, unique_jobs: usize) -> WorkloadConfig {
    WorkloadConfig {
        unique_jobs,
        repeats: 3,
        max_initial_selection: 100,
        scheme: WorkloadScheme::DependencyClosure,
        seed,
    }
}

#[test]
fn closure_stream_on_the_sft_universe() {
    let repo = Repository::generate(&RepoConfig::sft_like(1));
    let stream = generate_stream(&repo, &workload(7, 120));
    assert_eq!(stream.len(), 360);
    assert_eq!(digest(&stream), 0x6179_0e98_bee9_f2d8);
}

#[test]
fn closure_stream_on_the_test_universe() {
    let repo = Repository::generate(&RepoConfig::small_for_tests(11));
    let stream = generate_stream(&repo, &workload(3, 200));
    assert_eq!(stream.len(), 600);
    assert_eq!(digest(&stream), 0x76f3_a0cd_3328_27d3);
}

#[test]
fn random_control_stream_on_the_test_universe() {
    let repo = Repository::generate(&RepoConfig::small_for_tests(11));
    let config = WorkloadConfig {
        scheme: WorkloadScheme::UniformRandom,
        ..workload(3, 200)
    };
    assert_eq!(
        digest(&generate_stream(&repo, &config)),
        0x5f22_438b_8678_961e
    );
}

#[test]
fn zipf_stream_on_the_sft_universe() {
    let repo = Repository::generate(&RepoConfig::sft_like(2));
    let stream = generate_zipf_stream(&repo, &workload(5, 150), 1.1);
    assert_eq!(digest(&stream), 0xeb20_91c7_462b_8bca);
}

#[test]
fn user_mix_stream_on_the_test_universe() {
    let repo = Repository::generate(&RepoConfig::small_for_tests(13));
    let config = UserMixConfig {
        users: 4,
        pool_size: 40,
        unique_jobs: 80,
        repeats: 2,
        max_initial_selection: 12,
        seed: 9,
    };
    assert_eq!(
        digest(&generate_user_mix_stream(&repo, &config)),
        0xe8c6_acc3_3c5c_85d5
    );
}

#[test]
fn selections_in_draw_order() {
    let repo = Repository::generate(&RepoConfig::sft_like(4));
    let sampler = Sampler::new(&repo);
    let mut rng = StdRng::seed_from_u64(17);
    let draws: Vec<Vec<PackageId>> = [
        SelectionScheme::UniformRandom,
        SelectionScheme::PopularityWeighted,
    ]
    .into_iter()
    .flat_map(|scheme| (0..40).map(move |_| scheme))
    .map(|scheme| sampler.sample_request_seeds(&mut rng, scheme, 100))
    .collect();
    assert_eq!(
        digest_lists(draws.iter().map(Vec::as_slice)),
        0xd28e_2f9d_2b70_46f2
    );
}

#[test]
fn closure_spec_of_fixed_selections() {
    let repo = Repository::generate(&RepoConfig::sft_like(3));
    let n = repo.package_count() as u32;
    let selections: Vec<Vec<PackageId>> = vec![
        vec![],
        vec![PackageId(0)],
        vec![PackageId(n - 1)],
        (0..100).map(|i| PackageId(n - 1 - i * 37)).collect(),
        (0..40).map(|i| PackageId(i * 241 % n)).collect(),
    ];
    let specs: Vec<Spec> = selections.iter().map(|s| repo.closure_spec(s)).collect();
    assert_eq!(digest(&specs), 0xbd8b_bc7a_4c2e_8cae);
}

#[test]
fn repository_json_bytes() {
    let repo = Repository::generate(&RepoConfig::small_for_tests(21));
    let json = serde_json::to_string(&repo).expect("repository serializes");
    assert_eq!(fnv(FNV_OFFSET, json.as_bytes()), 0x0ca1_653c_2d27_ef23);
}
