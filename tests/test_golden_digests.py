"""Canonical-JSON regression digests of the character constructors.

SHA-256 of ``canonical_str()`` for five constructors on A3, B2, C3 and G2,
in every coefficient ring: the group ring, ``trivial``, ``ray`` along the
dual Weyl vector and ``ray`` along a coweight with fractional coordinates.
The verifier sides (the coset sum on the same four types, the coset RHS
and the lattice-theta LHS on A3) are digested the same way, in SIDE_GOLDEN,
and the group_ring coset sides on A1-D4 at integer and fractional orders in
GROUP_RING_SIDE_GOLDEN.
The whole stdout of ``liechar char --which finite|weyl`` in the
specialized rings, on D5, B3 and E6 with weights in and outside the root
lattice, is digested in CLI_GOLDEN, and that of ``liechar char --spec full``
(every builder on A2 and D4) and ``liechar verify-kw --spec full`` in
FULL_CLI_GOLDEN and FULL_KW_GOLDEN, and that of ``liechar singular`` at two
scalings in SINGULAR_GOLDEN.  The exit code, stdout and stderr of
``liechar verify-gko`` in every spec and at a refused --kappa are digested
in GKO_CLI_GOLDEN, and those of ``liechar weights`` in WEIGHTS_CLI_GOLDEN.  The Weyl-orbit sums behind them,
``alternating_sum``, ``weyl_orbit`` and ``weyl_orbit_signed`` on a fixed
sweep of weights, are digested by ``repr`` in ORBIT_GOLDEN, and the data
every one of them starts from, the attributes of ``RootSystem`` on A1-A8,
B2-B6, C2-C6, D4-D8, E6-E8, F4, G2, A12 and D16, in ROOTSYS_GOLDEN.
A change that moves any byte of these series fails here.  To re-record
after an intended change of output, run this file as a script and paste
what it prints into GOLDEN, SIDE_GOLDEN, GROUP_RING_SIDE_GOLDEN,
CLI_GOLDEN, FULL_CLI_GOLDEN, FULL_KW_GOLDEN, SINGULAR_GOLDEN,
GKO_CLI_GOLDEN, WEIGHTS_CLI_GOLDEN, ORBIT_GOLDEN, ROOTSYS_GOLDEN and
STRUCTURE_GOLDEN.
"""

import contextlib
import hashlib
import io
import itertools
from fractions import Fraction as F

import pytest

from liechar import (
    GradedCharacter,
    alternating_sum,
    assemble_coset_character,
    build_root_system,
    chevalley_structure,
    coset_rhs_character,
    default_kappa_samples,
    denominator_inverse,
    finite_char,
    kw_lhs_character,
    lattice_theta,
    level,
    make_context,
    takiff,
    walgebra_module_char,
    weyl_module_char,
)
from liechar.cli import main

TYPES = ["A3", "B2", "C3", "G2"]
MODES = ["group_ring", "trivial", "ray_rho_check", "ray_rational"]
BUILDERS = ["denominator_inverse", "lattice_theta", "weyl_module_char",
            "walgebra_module_char", "finite_char"]
SIDES = [("assemble_coset_character", t) for t in TYPES] + [
    ("coset_rhs_character", "A3"), ("kw_lhs_character", "A3")]


def _mode_and_xi(rs, mode):
    if mode == "ray_rational":
        return "ray", tuple(F(1, k + 2) for k in range(rs.rank))
    return ("ray" if mode == "ray_rho_check" else mode), None


def _context(rs, mode):
    return make_context(rs, *_mode_and_xi(rs, mode))


def _series(builder, label, mode):
    rs = build_root_system(label)
    ctx = _context(rs, mode)
    kappa = level(rs, default_kappa_samples(rs, 1)[0])
    lam = tuple([1] + [0] * (rs.rank - 2) + [1])  # omega_1 + omega_rank
    if builder == "denominator_inverse":
        return denominator_inverse(ctx, 3)
    if builder == "lattice_theta":
        return lattice_theta(ctx, 3)
    if builder == "weyl_module_char":
        return weyl_module_char(ctx, rs.highest_root, kappa, F(7, 2))
    if builder == "walgebra_module_char":
        return walgebra_module_char(ctx, lam, kappa, 3)
    return GradedCharacter(ctx, 0, {0: ctx.project(finite_char(rs, lam))})


def _side(builder, label, mode):
    rs = build_root_system(label)
    args = _mode_and_xi(rs, mode)
    kappa = default_kappa_samples(rs, 1)[0]
    if builder == "assemble_coset_character":
        return assemble_coset_character(rs, kappa, 3, *args)
    if builder == "coset_rhs_character":
        return coset_rhs_character(rs, kappa, 3, *args)
    return kw_lhs_character(rs, 3, *args)


def _sha(series):
    return hashlib.sha256(series.canonical_str().encode()).hexdigest()


def _digest(builder, label, mode):
    return _sha(_series(builder, label, mode))


def _side_digest(builder, label, mode):
    return _sha(_side(builder, label, mode))


GOLDEN = {
    ('denominator_inverse', 'A3', 'group_ring'): '0b6dbd6448c68942bb70bb64d0267100724f0c69e2161c0410f5b16e501c688f',
    ('denominator_inverse', 'A3', 'trivial'): 'bab9b269d260c420a90ef254a7da188a40c05f8642308adbe22e887c2b819581',
    ('denominator_inverse', 'A3', 'ray_rho_check'): 'd8cbcc20793c31b8cbbd21cf7829badc11d8d24e05120f4f2b7420f8be9e2d59',
    ('denominator_inverse', 'A3', 'ray_rational'): '467e19a4061fe0e4075fe2610e2c63746126337aeb52db7c5838dcf36cc3d520',
    ('denominator_inverse', 'B2', 'group_ring'): '30395e85e96a07a0ae9402cbd13d49ae347e628ae83dd0bd05dd291ccf508cf9',
    ('denominator_inverse', 'B2', 'trivial'): '22b89b414a06bba9504754d99ddbd2b8285eb31e4a50cfff4eebddeb46f2b8ac',
    ('denominator_inverse', 'B2', 'ray_rho_check'): '26fef7d530e16fd6510048b5b1aa29709f18a7f425b63a920338c48cf373d1be',
    ('denominator_inverse', 'B2', 'ray_rational'): '36dc48e55592e5ae66b252fa35aca5db97e1f17cdccf34ae8816002309e9b752',
    ('denominator_inverse', 'C3', 'group_ring'): 'b3107acf6462bc51415ca6299e89da87b2befa35018a953c8dafdea83a64fdaf',
    ('denominator_inverse', 'C3', 'trivial'): '93fe08280e1393a4153b159964ba76db3d30a139bad164be93507bb135fefa81',
    ('denominator_inverse', 'C3', 'ray_rho_check'): '1d7de253bfbe1a4023227466da9ed237d68d0470d76cf8696964adba11de0d13',
    ('denominator_inverse', 'C3', 'ray_rational'): '44f960fc70492a916146d745795606471fe80749e0cc2e6064ca84b55d16ae11',
    ('denominator_inverse', 'G2', 'group_ring'): '92f51cf8ceebf05d90ab325a5254ff43afe8b0a363deeaad82d58da95f67d184',
    ('denominator_inverse', 'G2', 'trivial'): 'ee8cc560b2536a84d5731463bdb898338b11daf9540032a062591e835df4a01f',
    ('denominator_inverse', 'G2', 'ray_rho_check'): 'ddc1eb8e86cad869f994bb5049a269f8c2c7d94a68bd38ebe568974a4a8b6eab',
    ('denominator_inverse', 'G2', 'ray_rational'): 'b8ae80ab8fed27b39f7f3c8334b26e075a57ddf55a95a0b59be45391e628017c',
    ('lattice_theta', 'A3', 'group_ring'): 'c9465fa08e8b35438d33cb0ff252dd20af2d350c897969cda3dd845033eddc0f',
    ('lattice_theta', 'A3', 'trivial'): '23c65a5c9c8efb67223bb9562425c8d4e4b01ac59662b6140a064633ef40da73',
    ('lattice_theta', 'A3', 'ray_rho_check'): '1408ccbb30b31f29242ecf29e42cbb38b91eb1ebcdda28150d99411e149a8671',
    ('lattice_theta', 'A3', 'ray_rational'): '40c2ad9b170077e21be886d229c452f59451f21346142b05ab17ed10dee5a519',
    ('lattice_theta', 'B2', 'group_ring'): 'a0d341531d9ab5717fc89daadb80a37b3694ee125f8c2b0ace94ae9667dd542f',
    ('lattice_theta', 'B2', 'trivial'): '5525b7114681b0956b3234fa8f400465aa0933b87863e249afb37d6b255c50d4',
    ('lattice_theta', 'B2', 'ray_rho_check'): '4e941a58136b8a7ed5af4e7ca35b1dbd119b279eaf3137e0804079bf51d4f5e7',
    ('lattice_theta', 'B2', 'ray_rational'): '2998b404d1a6b636f1944a468e2880d2d7c48eae8433d493b51e629539e15d9d',
    ('lattice_theta', 'C3', 'group_ring'): 'de01567baa8fa5792c8561ac2e4e4edbab97b9c3d07a3996a0735069d044a78c',
    ('lattice_theta', 'C3', 'trivial'): 'dd17e8f3cea9238baf162038cc4059bd9df6f2960bf7330c4bb0a690a973a4d5',
    ('lattice_theta', 'C3', 'ray_rho_check'): '34457e81ee6e6a5be3af21b73fd88f4c3323b01ca806404d47b4ead1f28ff10f',
    ('lattice_theta', 'C3', 'ray_rational'): '66c8d2a5ae6e361f71c0c3192a1b46271a9c6a3bbf36dcb0ba510eef54c19312',
    ('lattice_theta', 'G2', 'group_ring'): '2fb516e8a8012a3e7759640720af31398e396cc9f5946a003e0afd618019dce7',
    ('lattice_theta', 'G2', 'trivial'): 'a87f42cf5b51f9331c0976904581cb831076036ccb5125e5ad80dbad354847de',
    ('lattice_theta', 'G2', 'ray_rho_check'): '79292400ff2a9df8ae6d00ab180fea6b479844a4fa2f9a7bfddd9931ee8d274b',
    ('lattice_theta', 'G2', 'ray_rational'): '489987bcb846f2e213dbb36e8223552a3af50a3037474d7ecc05df7ebbe49575',
    ('weyl_module_char', 'A3', 'group_ring'): '0b512210b9d78042f0f37f472b4ebbaf70f732d7e2f525cbd8c847dbb8c5643f',
    ('weyl_module_char', 'A3', 'trivial'): '87b6301988b32a62e9323033849a8cb17aa05e998e292e7232afa1ff1db4de1c',
    ('weyl_module_char', 'A3', 'ray_rho_check'): 'f2f2cdca60d15d6c31e25da26708600e51389e0a7ce9bd19c4c45900174ab0fc',
    ('weyl_module_char', 'A3', 'ray_rational'): '088083fa0dd0122ceef758cf54419f781d17b976a2d1052709b0158ffb8e02b6',
    ('weyl_module_char', 'B2', 'group_ring'): '4410bc09317cb0ad493d396934b59b2938b6be1ab02eaa8959300a5ff83d4be5',
    ('weyl_module_char', 'B2', 'trivial'): 'ebbb6711e355d3b761870224868a3ba8697698830ec752667ac76fade4b40ade',
    ('weyl_module_char', 'B2', 'ray_rho_check'): 'afeed5797686f0f7fa72f4ca96707031fbf9798388f98b21fed1bdc2c5356415',
    ('weyl_module_char', 'B2', 'ray_rational'): '4c3f5b6081fb302e4ec7760a2b788a9e60afe3deb37892b0f6439b64e6be8027',
    ('weyl_module_char', 'C3', 'group_ring'): '2704784eb4f8493b8c282c4eab3da211010b6946381ddf4351cf1a797a1623a2',
    ('weyl_module_char', 'C3', 'trivial'): 'b9e3a529c98219c3dc80b0d3caaf6df512659ce9b677e56c38cd8df943da514e',
    ('weyl_module_char', 'C3', 'ray_rho_check'): 'cc799ca21fbf6e4326289f8734af463d022b91b0426bd3472e13f170531a6ebc',
    ('weyl_module_char', 'C3', 'ray_rational'): 'a835ece4f68609acc970ee8bb311010ca58f105c132d633e8983e338a7c49b3c',
    ('weyl_module_char', 'G2', 'group_ring'): '0cc23381a2caee4dec466f1c212c967077d1cd7e0e20ab30361f7dc1d90ead99',
    ('weyl_module_char', 'G2', 'trivial'): '7b3411de417bc54b90fb81bc5c64be1fe2d16126159f52e947c85913fb2d9399',
    ('weyl_module_char', 'G2', 'ray_rho_check'): '95ddc0750de398ada80509c1171dc122610c2b6368f48272190fa620e65cff4f',
    ('weyl_module_char', 'G2', 'ray_rational'): 'c645a731ba5aa7f5635494a348274a94a18d2fcead9f269f98b548155bcd91b1',
    ('walgebra_module_char', 'A3', 'group_ring'): 'ae6a41ac9c1b4f9f2cf75be5e6d5935088952498b6c3e9f0fd7e1cb16f67c36d',
    ('walgebra_module_char', 'A3', 'trivial'): '16be0aef9a716bbb7b629d7eb6ab355b138a7c17063b9fcf175a518941d9b966',
    ('walgebra_module_char', 'A3', 'ray_rho_check'): '13385f7c060df2318e08621d9b42dd824dfbc2caddc873a07878cbd2ead7f03f',
    ('walgebra_module_char', 'A3', 'ray_rational'): 'b0425b8ed467bcb4ce43cbb2e26384c9b247cd2e52d2b14b2e072839e819e29b',
    ('walgebra_module_char', 'B2', 'group_ring'): '7dad7e6d80f0a35a3f8eaa95b5cacda49b70b267cecd90d2a4fc1517785c5c8a',
    ('walgebra_module_char', 'B2', 'trivial'): '62795eb25cf17a03ab4b308374b42ddfee9f3d086c1b1bf212f513f99404d1c8',
    ('walgebra_module_char', 'B2', 'ray_rho_check'): 'c069cea9c9e179fa6291c8a66cd73e6ae448faa56bc9c6523a16371005b8719e',
    ('walgebra_module_char', 'B2', 'ray_rational'): 'e668aa3e3177726ff2de9e8fd8dea7454a1b079f545e4332db752529ae5bea7a',
    ('walgebra_module_char', 'C3', 'group_ring'): 'a19d05ac9f7e27e7a8873a240528f0fc1194d1ebca2414d4e5e207f1106f5f4a',
    ('walgebra_module_char', 'C3', 'trivial'): '8604ef077e94d739a3ac05c074aa6dd8052bf83598a5d2dd88f22c492e079409',
    ('walgebra_module_char', 'C3', 'ray_rho_check'): '1440f454ac1e2b65bf88e6d4a87699b3255967ef7c5955fc70d8851ad218bf45',
    ('walgebra_module_char', 'C3', 'ray_rational'): '7c99a54ebef674686f280fc62722b6871f890d78913cce1d678bb81c798c24f6',
    ('walgebra_module_char', 'G2', 'group_ring'): '09f908c39421ab4c5578648c28e7bab10b45fccd55a4cac758eb7382a076a3ea',
    ('walgebra_module_char', 'G2', 'trivial'): '82f4038190c6d78aa4c1d719a83844d99cf270183d601ceecde980814e4f6765',
    ('walgebra_module_char', 'G2', 'ray_rho_check'): '9497f50990f652e4dcbbe684dc6afe520f63c526ad6b8b2991b8915a18d960e7',
    ('walgebra_module_char', 'G2', 'ray_rational'): '277596156b7602523fe694981c5b3b895c9e7d4576014cf63b718ac7bfe6e28e',
    ('finite_char', 'A3', 'group_ring'): '8eb7a5674bcf901f37fa30f7fc51ec46a648d7ddd4b5746de405376bd32f7e90',
    ('finite_char', 'A3', 'trivial'): '4619ed11b53c090f4454e04b0d1e895d644775f71aaeaa7cdb4c5c0228beb902',
    ('finite_char', 'A3', 'ray_rho_check'): '82364b98a34718a0eed45ce5977556081b57dbe2dd542a3c5a1f339d0e17e7f8',
    ('finite_char', 'A3', 'ray_rational'): '1cbb70dbf81962dad30fd234b24753bb41c1743cd7e99e7a10a6620caba4762c',
    ('finite_char', 'B2', 'group_ring'): '91f3380aa20ca6b91ef4784fd4116562027f1d232c2e19ac73f117592b6832c8',
    ('finite_char', 'B2', 'trivial'): 'be66195ac17f56803e9b26bd54e5cfeae7030a9c6bbcd548f2b5c0822c1604f6',
    ('finite_char', 'B2', 'ray_rho_check'): 'cb2dcaa52fb12407e438259fed8e9d4ee1f05f645a0093644dfbfe806f7ed0b3',
    ('finite_char', 'B2', 'ray_rational'): 'd2ee3ccf1db071662adc42052b0de6a1d7fea5256034f5bea75a29abae3e645c',
    ('finite_char', 'C3', 'group_ring'): '1de3b4ec7a46c274bca3731762944da4a11881b2b35782f389cc399dca7371c8',
    ('finite_char', 'C3', 'trivial'): 'f3facb97164b5725154286542c950443474fb8749471a91407df5f3045993d65',
    ('finite_char', 'C3', 'ray_rho_check'): '03b983c75007840e2a2ee4693f98a66d750481a79a961bb5de768290af2660a1',
    ('finite_char', 'C3', 'ray_rational'): '8e496e8fe9da057dfe795697c9534572c27db3a0e42988cbf9e3052729290846',
    ('finite_char', 'G2', 'group_ring'): 'b1aa80fe50f387f1b1c35d4ff7a07636a9e857695063318c61770b5c1a39b507',
    ('finite_char', 'G2', 'trivial'): 'dddb9f2b7456b1877b33025223d9a0fee602ea5cf646438f40a6f086b1e82f86',
    ('finite_char', 'G2', 'ray_rho_check'): '57d631fed504b32cffeeda58a3f0ab24fff9be7bc4dadb85354acce77ee602f6',
    ('finite_char', 'G2', 'ray_rational'): '7a5ef942d084c81167fc039f25ea7fca833e01976e4b82a6baad8c44f5b21e07',
}


# Recorded before the coset sum was factored as S_kappa * 1/D.  The A3 coset
# sum equals its RHS and the lattice-theta LHS equals lattice_theta above:
# equal digests are the two identities holding.
SIDE_GOLDEN = {
    ('assemble_coset_character', 'A3', 'group_ring'): '35ecd810a1f62ea681482267c6cd5e832b4dc5c26cc81f7de2a7d46e96f51616',
    ('assemble_coset_character', 'A3', 'trivial'): '96ce9dbec15aebfdb6c8725ac36daaaa9a03799fc1d516cbc83652046c0c875e',
    ('assemble_coset_character', 'A3', 'ray_rho_check'): '08ff740a6ad2568c33dddcc3173028de332e8857c2074bbc70f5cb4665c8a965',
    ('assemble_coset_character', 'A3', 'ray_rational'): 'f60e465d05912e30cfaf711f315e6dc238e967d34237d3fc4afd5ada3c4bbe5d',
    ('assemble_coset_character', 'B2', 'group_ring'): 'afd9ae57d32397d9f044f228ed92cea4acbaa698b987f448205b3da9ec8e61ed',
    ('assemble_coset_character', 'B2', 'trivial'): '5e03d8c865ed136cd09a2bf39b5f55664ca3570ae818cfdfe5fb371236d6bb6c',
    ('assemble_coset_character', 'B2', 'ray_rho_check'): 'd1780f2526efd2079c2f0905cbf4af6901a027f35f28dc68af1d1b5c828ee7d6',
    ('assemble_coset_character', 'B2', 'ray_rational'): '1e8b27e056985c4fea20962069b20c397071a6f89ac11761ecd7ecac1d202842',
    ('assemble_coset_character', 'C3', 'group_ring'): '98e63f06f88e82fe76ae2d5934cdafb5895c59437c303050162c927aa9c40d25',
    ('assemble_coset_character', 'C3', 'trivial'): '7e51ca7e69bd6745502d8a3ea653f741f1278bfd74e708718ebd3f626b55a889',
    ('assemble_coset_character', 'C3', 'ray_rho_check'): '8165956fabdaa9277011c0a715cc9bbaab01fa7c16eb61e29badbfc144232ccb',
    ('assemble_coset_character', 'C3', 'ray_rational'): '904b82caf68fa83757d3ae64d266e616d4d098f779092737f235d81147118e01',
    ('assemble_coset_character', 'G2', 'group_ring'): '24764e01e2d37c3d572d43c02284626bce6a7add7137696505f30a92b515d4b2',
    ('assemble_coset_character', 'G2', 'trivial'): '20784cb7c3a025b6d7428ea160994d9df5f9997bed377ed839257e30c38ecea6',
    ('assemble_coset_character', 'G2', 'ray_rho_check'): 'caa4b1accaf0809d19f3b2c9903689e3df2dba840cdf4840e29cd4f22ed854bb',
    ('assemble_coset_character', 'G2', 'ray_rational'): 'fb6c8deb6efdf844cba38fb36eed2eecd1d46b99b79a1482c767f274c9ae894c',
    ('coset_rhs_character', 'A3', 'group_ring'): '35ecd810a1f62ea681482267c6cd5e832b4dc5c26cc81f7de2a7d46e96f51616',
    ('coset_rhs_character', 'A3', 'trivial'): '96ce9dbec15aebfdb6c8725ac36daaaa9a03799fc1d516cbc83652046c0c875e',
    ('coset_rhs_character', 'A3', 'ray_rho_check'): '08ff740a6ad2568c33dddcc3173028de332e8857c2074bbc70f5cb4665c8a965',
    ('coset_rhs_character', 'A3', 'ray_rational'): 'f60e465d05912e30cfaf711f315e6dc238e967d34237d3fc4afd5ada3c4bbe5d',
    ('kw_lhs_character', 'A3', 'group_ring'): 'c9465fa08e8b35438d33cb0ff252dd20af2d350c897969cda3dd845033eddc0f',
    ('kw_lhs_character', 'A3', 'trivial'): '23c65a5c9c8efb67223bb9562425c8d4e4b01ac59662b6140a064633ef40da73',
    ('kw_lhs_character', 'A3', 'ray_rho_check'): '1408ccbb30b31f29242ecf29e42cbb38b91eb1ebcdda28150d99411e149a8671',
    ('kw_lhs_character', 'A3', 'ray_rational'): '40c2ad9b170077e21be886d229c452f59451f21346142b05ab17ed10dee5a519',
}


# group_ring verifier sides on larger types and at fractional orders,
# recorded while both sides were still built over monomials: the coset RHS
# at q^3, and the coset sum at q^(1/2) and q^(7/2).
GROUP_RING_SIDES = [("coset_rhs_character", t, 3) for t in ["A1", "A2", "A4", "D4"]] + [
    ("assemble_coset_character", t, order) for t in ["A2", "A4", "D4"] for order in ["1/2", "7/2"]]

GROUP_RING_SIDE_GOLDEN = {
    ('coset_rhs_character', 'A1', 3): '49d28c39d53b424de68ca6d6524c292b0ebe34ff75251ea81a24f561eda5de51',
    ('coset_rhs_character', 'A2', 3): '9042f9b0afb2bd11808e58504af77af3d37a4b70ee786e989438132cb4bd7756',
    ('coset_rhs_character', 'A4', 3): '1b20811c6c2184c9fe5d19eb9098521831bfb6f541ff156c9a2b70806144ed97',
    ('coset_rhs_character', 'D4', 3): '746711ec77c11ea51045d953d956f3f0db8fd882ca31a96b20fcbeaee3ae2174',
    ('assemble_coset_character', 'A2', '1/2'): '111303b2947c2935ed8c1ae6b56cfd9523bc78e2395bb3ba0d4eecf76ca5cf08',
    ('assemble_coset_character', 'A2', '7/2'): 'fa31b7a8968fcf83788bcac7459d2da6347b92e9a7fb2a66398dbb80826a0069',
    ('assemble_coset_character', 'A4', '1/2'): '0eb6a34397bbd91cc502735d3c6d689d0bc97e571ad9e293e0e0226ca2444290',
    ('assemble_coset_character', 'A4', '7/2'): '4493c95739cb2f94b38d3287ccbdb5ca54c018b39d4211e2d172d8f33ab7372b',
    ('assemble_coset_character', 'D4', '1/2'): '1e7ab23745d60cb99b3b376c5158489e2c4be6e35490224ea5c36e0f0a353c7a',
    ('assemble_coset_character', 'D4', '7/2'): 'd311e0f98e022aa40d9539e771e5da9a31a6afcd04711954c2d57a287f4c9f29',
}


def _group_ring_side_digest(builder, label, order):
    rs = build_root_system(label)
    kappa = default_kappa_samples(rs, 1)[0]
    side = assemble_coset_character if builder == "assemble_coset_character" else coset_rhs_character
    return _sha(side(rs, kappa, F(order)))


# ``liechar char`` in trivial, ray along rho_check and ray along a rational
# coweight, recorded while ch L_lam still came from Freudenthal plus project
# in every ring.
CLI_XI = {"D5": "1/2,1/3,1/4,1/5,1/6", "B3": "1/2,1/3,1/4"}
CLI_FINITE_LAMBDA = {"D5": "1,0,0,0,1", "B3": "1,0,1", "E6": "1,0,0,0,0,0"}
CLI_WEYL = {"D5": ("0,1,0,0,0", "4"), "B3": ("0,1,0", "3")}
CLI_CASES = [(w, t, s) for w in ("finite", "weyl") for t in ("D5", "B3")
             for s in ("trivial", "ray_rho_check", "ray_rational")] + [("finite", "E6", "ray_rho_check")]


def _cli_argv(which, label, spec):
    if which == "finite":
        argv = ["char", "--which", "finite", "--type", label, "--order", "0",
                "--lambda", CLI_FINITE_LAMBDA[label]]
    else:
        lam, order = CLI_WEYL[label]
        argv = ["char", "--which", "weyl", "--type", label, "--order", order, "--lambda", lam]
    if spec == "ray_rational":
        return argv + ["--spec", "ray", "--xi", CLI_XI[label]]
    return argv + ["--spec", "ray" if spec == "ray_rho_check" else spec]


def _stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _cli_digest(which, label, spec):
    return _stdout_digest(_cli_argv(which, label, spec))


CLI_GOLDEN = {
    ('finite', 'D5', 'trivial'): 'e9ea93733fef01327ea8b6a6e174d6ca676f5502ba2b6e179efd96f21cd90a6e',
    ('finite', 'D5', 'ray_rho_check'): '4243e46dcd9ff36e1b224a781eca2b24d6fa4bc8d95248b393eef90884e3ef9e',
    ('finite', 'D5', 'ray_rational'): '1c8b2055c371f9bcef887eaaed6b780a5443dcc700528ab4c828c71fd224b42e',
    ('finite', 'B3', 'trivial'): 'b61385ad6cc7f0e720812693f11d651aefa322aa8ac1e4a3ce30df8450ff5628',
    ('finite', 'B3', 'ray_rho_check'): '70f561dfa7f994b7a94a70b040ac5c9097ac044ca94a7f64887383a433db655d',
    ('finite', 'B3', 'ray_rational'): 'f78b2624477936c1bb0e5a71e13a7fcb78383fa21eb8fd03961e83b28578f04e',
    ('weyl', 'D5', 'trivial'): '77713ce98d5682b8ce48dbca8812755c10161b1b88f0b5ee600f875986236478',
    ('weyl', 'D5', 'ray_rho_check'): '42d9cbf208b6ecdb867d653a0fced5a0959f91cfc00b325d38a5c3d72a8a5254',
    ('weyl', 'D5', 'ray_rational'): '89f36dacc5a67a365386a34ccede3ef691151deb7df9dafe39085d171db0cb71',
    ('weyl', 'B3', 'trivial'): 'ce12dfdee5db4af08a7ce80206111ee002d45f5bb89f593da34e4fef80acc1c9',
    ('weyl', 'B3', 'ray_rho_check'): 'a3d54ba0fa3732de0ae161cbb1ca99ef14cc2827a6e6cb9c96d20374c13b36c8',
    ('weyl', 'B3', 'ray_rational'): '9824b85985f04385d7abd6add542f0ebb119ef32a5215de25b89633271ada0ab',
    ('finite', 'E6', 'ray_rho_check'): '6a038f8a9a59dd42fedfe683ae293e897b6b06fde874c71a1369d23713498878',
}


# ``liechar char --spec full`` for every builder, without --lambda (lambda =
# 0) and with it, and ``liechar verify-kw --spec full``, recorded while
# make_context's group_ring was still the monomial group ring.
FULL_CLI_BUILDERS = ["level-one", "weyl", "wmod", "denominator", "denominator-inverse", "finite", "theta"]
FULL_CLI_LAMBDA = {"A2": "1,1", "D4": "0,1,0,0"}
FULL_CLI_ORDER = {"A2": "3", "D4": "2"}
FULL_CLI_CASES = [(w, t, lam) for t in FULL_CLI_LAMBDA for w in FULL_CLI_BUILDERS for lam in (False, True)]
FULL_KW_ORDER = {"A1": "4", "A2": "3", "A3": "2", "A4": "2", "D4": "2"}


def _full_char_argv(which, label, with_lambda):
    argv = ["char", "--which", which, "--type", label, "--order", FULL_CLI_ORDER[label], "--spec", "full"]
    return argv + ["--lambda", FULL_CLI_LAMBDA[label]] if with_lambda else argv


def _full_kw_argv(label):
    return ["verify-kw", "--type", label, "--order", FULL_KW_ORDER[label], "--spec", "full"]


FULL_CLI_GOLDEN = {
    ('level-one', 'A2', False): '58138257375fb559a7425decb1afe3b06cc2ecb839883a1d1aea9bcc0abf01f8',
    ('level-one', 'A2', True): 'be3da39f2d025827260843de55e2d9ae4d8db87092632a6ec96da775b27feaf5',
    ('weyl', 'A2', False): '13fdd94f06f306ca399a520ac247f5cbd1044dad21daee352d2dc59dae879696',
    ('weyl', 'A2', True): '76591a49427a3578650cc7c11833d08bd525c962eef225fc72ddcee5e9ff92f3',
    ('wmod', 'A2', False): '869c5ea534b8fd5165d2f9734be106a2e52ed8b92a01a46da74bcc4bd4ff266e',
    ('wmod', 'A2', True): '35a801c19329f2aae04e917a6ffdcf28899808d551af4e59848f8ea5504d5059',
    ('denominator', 'A2', False): 'b838963f4ac16cc973f5bf786166ec9d8f77f95de3455bf47980cb3c83bb674c',
    ('denominator', 'A2', True): '4ba04f4da294c62d0b9bbef3e0012cefd9c651f5e37c09c0e93c678e1f27b4a4',
    ('denominator-inverse', 'A2', False): 'bd95d2bf7314d2030bc2bcfc3f4092666395104cc69caacb6841431187693436',
    ('denominator-inverse', 'A2', True): 'a10dc5c8aa46a26f3fc91ea7a845b63375d816e6d3dee0f551af830ee01bd6cb',
    ('finite', 'A2', False): '49e32985e846bc94cacbb429e39ce40b9fd795821c5dd8b7028bac8f9914350d',
    ('finite', 'A2', True): 'bc1d14526009e0baf07f9f6362ab691a30681a42b15718c1ca1792fa6190f424',
    ('theta', 'A2', False): '9397107df1d82e56a4aa2cd301ad366028cf9394c48a71cc15ddb2376b1b3da1',
    ('theta', 'A2', True): '1cbd09dc15716e441769ff3b57d60c02c8b2f9e518fbb2bc37c18d8569c9974e',
    ('level-one', 'D4', False): '243e71b860651071250e0d91b1ce3a14109d31e6459b1b126505602ae5e217ce',
    ('level-one', 'D4', True): '069ac8500b2b6694ae027650977a2de374c67d14c79355240f8170e435d83bbb',
    ('weyl', 'D4', False): '3927e78bb2360a2a1f8fda291a054dd20b7a1d840a37f57137d079cc5aa6d5a0',
    ('weyl', 'D4', True): '86dfdd87c003097950cae7ea5ea035a24b8e518fadaff40781b3d258384db37d',
    ('wmod', 'D4', False): 'bf3b6928e8193e76c54d2182aece1f60cc3c8f69623b93b07af10241822e01ec',
    ('wmod', 'D4', True): '0ed4cc06917985bc5912b13961ec70ca272b0f8a4993e01720e423c2b7195a39',
    ('denominator', 'D4', False): 'd5f1821ccf9811630bb7d850f5aa0820ea36fd0fac8101a5986d03b08d05fcc9',
    ('denominator', 'D4', True): 'ee24ae9908f4db724c64c711d327708c6fc2bd45db461607a7fba974c6bf7c2c',
    ('denominator-inverse', 'D4', False): 'e8a2522329721b8379181ed5906b6589945a6d50e496b85293d194137465958d',
    ('denominator-inverse', 'D4', True): '033944790f35b109b101fa5bf280b7261fa1dd62c7e7d32ab9e3b3c0fa2f07bd',
    ('finite', 'D4', False): '0b87307b4ed92d8b0bf55bb3afcce33aaed6d58af24c45659eb5ef0f7ebc0b78',
    ('finite', 'D4', True): '7c80e8e7683a1b10624da25c55cc8a5444cea95271275d64b11e4a143382a317',
    ('theta', 'D4', False): '17ff45741c4078706043357d877038e3b7c73d9b0cd470d789676f9b0bad236e',
    ('theta', 'D4', True): '775792cc9cd85eef3b5a5d70217b53f46fc53dc5649fa0aef9df467b168f87c7',
}

FULL_KW_GOLDEN = {
    'A1': 'bf25f2f4503940d45199af199ba74c9932c223391065fdc97391df4b42386569',
    'A2': '22720e8ae696d88638b17d51f06694e98507d2b1518170be8e60184d9c462b6f',
    'A3': '7fd848675ed5ee54165a3902ab80199c769a3b3947e016187edcd96fff817c3f',
    'A4': '7c628561ee07aa9460755f35c9d804bc54dbed7620535fa08c9e6d8cd2f78ab4',
    'D4': '6dcaa6a5c8004ccb0f39ad94dcead33b1fe20ce90f88bed687404fcce8251b80',
}

# ``liechar singular`` at the default scales and rescaled (the constraint
# polynomials and their root sets), recorded while the kappa-polynomials were
# still a class of their own.
SINGULAR_ARGV = {
    "default": ["singular"],
    "rescaled": ["singular", "--scale-ea", "2", "--scale-fa", "7/2", "--scale-fb=-3/5"],
}

SINGULAR_GOLDEN = {
    'default': '1e0bb1dbfef168df6fb69ee0d2d65233a6209570affccd922693a98bd9f9440b',
    'rescaled': 'c2f45f31a8828e33b5cddbc831fb2dfc9e869ed17f4d8e62d1892208a7715a57',
}

# ``liechar verify-gko`` in every spec on A2 q^3 and D4 q^2, and refusing a
# --kappa on A2's kernel-partner pole (kappa + h_vee = 1, exit 2), and
# ``liechar weights`` with n = 1 and 2, recorded while each coset lead still
# came from the two levels.  The exit code and stderr are digested with
# stdout.
GKO_CLI_ORDER = {"A2": "3", "D4": "2"}
GKO_CLI_ARGV = {(t, s): ["verify-gko", "--type", t, "--order", o, "--spec", s]
                for t, o in GKO_CLI_ORDER.items() for s in ("full", "trivial", "ray")}
GKO_CLI_ARGV["A2", "pole"] = ["verify-gko", "--type", "A2", "--order", "3",
                              "--kappa", "1/2", "--kappa", "-2"]
WEIGHTS_CLI_ARGV = {(t, n): ["weights", "--type", t, "--n", str(n)]
                    for t in ("A3", "D4", "B2", "G2") for n in (1, 2)}


def _run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}{err.getvalue()}".encode()).hexdigest()


GKO_CLI_GOLDEN = {
    ('A2', 'full'): '79506fd95e4384f0c0736456c6be1a2d055c31e71358ceae09f84d0a096c0b93',
    ('A2', 'trivial'): '110364935731ba6db677c3025b33517b0d9ac6feb1e3383f45728367b9cf9a3f',
    ('A2', 'ray'): 'ab7486f48748a68aa4c8c03fd6018dd2c25105587f0c86556f247ab9fcf4b5ab',
    ('D4', 'full'): '75ad7d3ca7546efeb45f1c394043d0e6dfa0fcd006425f6366abe70cb67eae90',
    ('D4', 'trivial'): 'ebd9406c72bf27fc64be59dd7cdbb2f69d1e8cd06766ceeb28ead66a3525c789',
    ('D4', 'ray'): '2a2dd1fd9a371adcf554711a1dd9177133ae9a080c8cae96df8ad8c59b2124b0',
    ('A2', 'pole'): '221c1dbb4ff2735a9d23baf00c06698d419e5bc90cd5d6ff2418c26055a567aa',
}

WEIGHTS_CLI_GOLDEN = {
    ('A3', 1): 'edc327a7e5b1e6675b63bc65321587fe026c78cecfc4ce56bc42795571e75935',
    ('A3', 2): '6690eae00515f07f30c678c0f2779cb8a1b4569a25bb259e83e9a410113e9d93',
    ('D4', 1): '6dee3bd637018d902bfeb2e08a9e07b8af03d9d14cf05c9d9164a781cb4d90b5',
    ('D4', 2): '3c93717e5b8533f31b8c7107c7b264caa1d78e069d44ab7503f06f72e6f2c80a',
    ('B2', 1): '94cb4f85f8dd59a8b6f27ec013ccc8acc4fc1abd9dfa2c7265e248b5c00808f8',
    ('B2', 2): '4a76d08d7bbc4c28b6754c37076e217882c67531b883017fa2a1839aed963d5d',
    ('G2', 1): '646ba56ad10d412830015a1debb7ffb7dc1491883ea894df4679f5aff88d2e94',
    ('G2', 2): '161984479d80f8aadb3f5471e1929358bd07eb2bca5389625985c685a083170d',
}

# The Weyl-orbit sums on every lambda in {0, 1}^rank, recorded while
# alternating_sum, weyl_orbit and weyl_orbit_signed each ran on a walk of
# its own.  ``repr`` pins the key types (Fraction depths) with the values.
# "alternating" is alternating_sum at mu = lambda + rho and bounds -1/2, 0,
# 1/2, 5/2 and the depth 2 (mu, rho) of w_0, where it sums the whole orbit;
# "orbits" is weyl_orbit(lambda) and weyl_orbit_signed(lambda + rho).  Whole
# orbits are walked only where |W| <= 2000, and at mu = rho on E6.
ORBIT_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2", "E6"]
ORBIT_CASES = [("alternating", t) for t in ORBIT_TYPES] + [
    ("orbits", t) for t in ORBIT_TYPES if t != "E6"]


def _orbit_digest(kind, label):
    rs = build_root_system(label)
    out = []
    for lam in itertools.product((0, 1), repeat=rs.rank):
        mu = tuple(c + 1 for c in lam)
        if kind == "orbits":
            out.append((rs.weyl_orbit(lam), rs.weyl_orbit_signed(mu)))
            continue
        bounds = [F(-1, 2), 0, F(1, 2), F(5, 2)]
        if rs.weyl_order <= 2000 or not any(lam):
            bounds.append(2 * rs.inner(mu, rs.rho))
        out.append([alternating_sum(rs, mu, b) for b in bounds])
    return hashlib.sha256(repr(out).encode()).hexdigest()


ORBIT_GOLDEN = {
    ('alternating', 'A1'): '2debf73d3c136402438cbe116e9d80a2177a21a67dc73fb548175f1fcb0762fc',
    ('alternating', 'A2'): '102c845747346bca0773a8ee8b0ff4f54db03b4af44eff645cd33f75ad659034',
    ('alternating', 'A3'): '0c9fbb8e6637fc33568c10925bb4612aa1a7a60c51d2d71c2332d9c4bf781998',
    ('alternating', 'A4'): '9251cbcced6006fafcdabecc2e6132bbf8c332a51b4a1051b91c894e2a6e65e9',
    ('alternating', 'B2'): '83fb8112d2f6de999ac15613e704980cc38778d6bfc7842df2f5b8b477bdea16',
    ('alternating', 'B3'): '5850ee5fea3261b982ca36b60e9fc14a2f0e7038c9ef6b139c81cb6b0d28c23d',
    ('alternating', 'B4'): '2c58a801424714c91c7b5c71c113cb8d7d2698703ac748bee1532c76e28b48a6',
    ('alternating', 'C3'): 'f39ee209f9b6134b69c39f7d45be479dfb7b22a247b1880e6082f6513dff417e',
    ('alternating', 'C4'): '1d56a0e18cef5d6f60d6749b05504649af793b1f5effc62c31e0e5249dcd1dab',
    ('alternating', 'D4'): '85d5ed9b261dff96cec08920fce595b8f3da4083a73b3b0fe10b756dfc0e4b8a',
    ('alternating', 'D5'): '2addeff87ccc98f20eed3cc2972b28fd3a231450b9b0f11fbb52364b8e3ab6bd',
    ('alternating', 'F4'): 'e0c68f77b26f1b46d794649a224ea0441a84c4d0eee3bfcd9605fab4c357b800',
    ('alternating', 'G2'): '91d13d250a0e57fe58a04bef72bb42bb867beb26be49eebc5ab3102d29cb41e6',
    ('alternating', 'E6'): '19f304dbc45b0c8a97c6555122388afed764f9abfcafaa52c37401b0019f816c',
    ('orbits', 'A1'): '1d9a5f0b607787f6ab4c5202428b3eb9264e446053cdf851ac27589e700709e4',
    ('orbits', 'A2'): '8fb33b070b6dc51480b9fc0c0a64c604f2174587f0a505004f167b1682191b5a',
    ('orbits', 'A3'): 'b2d2cdba21c4c0108e16dc5a9c5156412b1a8c8caa0dd37bdccd4d5da42a45f6',
    ('orbits', 'A4'): '564e3898abb1f3cb3a87ed368b039e2339637eb6ac888d792cf389f1047b81d3',
    ('orbits', 'B2'): 'abf316f81b77bd42efa5c2a3ce29413b3bbe25e66183cd56e8b1f94c5ab71755',
    ('orbits', 'B3'): 'a3335b3802b35ac670b88df8bf996c734955387d44541c6d826bdd3a9ae3d320',
    ('orbits', 'B4'): '61e1c292bea061c0777e3d4ef3ba0f61b9e4ee7cac26003e48a5f008a5902782',
    ('orbits', 'C3'): 'e95778c9f7a2d635c329a43dd9ae9cda646cd61367a1dd2a8526dd2a9762f544',
    ('orbits', 'C4'): '3d21a10588c9048522fe04d3842cd6354d9249744e3a3531683a0346216dd78f',
    ('orbits', 'D4'): '18f1b2a98ad8b8ce0866ec9d96f4cf5bb3388a6d56f779cfb1de10f9ea8fb67c',
    ('orbits', 'D5'): '9a7c300c82eee30e49bf0f28ef1b0c733961a21e4a1dd2f223edc274bc84c1bc',
    ('orbits', 'F4'): 'c05d2b8c4ff3a001811d2e494e398949c8b677d2468beed31971e5101cda333a',
    ('orbits', 'G2'): '8029d9159cc3d74a62ad7dec0c04bb85b71e8ed3230255724b0cd50b89664677',
}


# The root-system data, in order: positive roots as listed, the dicts in
# insertion order, both integer forms with their denominators.
ROOTSYS_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
                 + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 9)]
                 + ["E6", "E7", "E8", "F4", "G2", "A12", "D16"])


def _rootsys_digest(label):
    # the symmetrizer (alpha_i, alpha_i)/2 and the Fraction matrix of the
    # (omega_i, omega_j) are built from inner, with the reprs the digests hold
    rs = build_root_system(label)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    symmetrizer = tuple(rs.inner(alpha, alpha) / 2 for alpha in rs.simple_roots)
    quadratic_form = tuple(tuple(rs.inner(u, v) for v in units) for u in units)
    data = (rs.positive_roots, rs._root_coords, rs._heights, rs._coroot_coords,
            symmetrizer, rs.rho_check, quadratic_form,
            rs._form_den, rs._form_scaled, rs._lattice_den, rs._inv_cartan_t_scaled,
            rs.dual_coxeter, rs.lacity, rs.weyl_order)
    return hashlib.sha256(repr(data).encode()).hexdigest()


ROOTSYS_GOLDEN = {
    'A1': 'd478e654878952b4746d72cdc91815f9524ba8d8b83cfb5d2c60ec34a8bd081d',
    'A2': '034c8d3949286c68c0f247cf6cafe9716122222c52cd8ede3b6e636839839e0e',
    'A3': '21ff78ef33e417a477d3c955acb8adb75d4536599e6e7b7f6c72ce1156d28cbb',
    'A4': 'd3e5d526fc98974710ae663de186ab9d50b6fcd3c6cfaad233ed251266fa1109',
    'A5': '68c88af089143d910c0e17b706f7bf515e7cbfffb73d7b2ac4f8af79083964bd',
    'A6': '7537338eb17efb41ab78d0c754219783adf240ff16981d9511a12218c2c3e8db',
    'A7': '62cbb8dc3f94a6fe456938e9dc26141488dd02ec7063c8dfea8304ae4bcf6555',
    'A8': '24e0d4475835e58e7ceb50a3540647f9e09c00b5261a0edb6402b2508f135e7e',
    'B2': 'fe19f7e4c2c71e7450a11134f581c0f19b01387de67f20b53e85f14bfe6d741f',
    'B3': '1d117fda80302d48743c9fc348e219a860463190c23d10ec83da207bd6fbd7df',
    'B4': '8f0d35c96befa564dffc20c5065932fbe34e276042510795ca051361d5a3b486',
    'B5': 'ed3f673c4ae603e6a5bc74fc2022fa3945ca4df6e4151b95e8795726059c54ca',
    'B6': '0f41a57e1ba10564e9699b832ddf3ba9f63295d962569e4508e2056dcb242aa7',
    'C2': 'c77025ec58bc031be6c0cb11ff695451229897facd49a5cdb6aba26098ca0fed',
    'C3': '37012d1f7494542e92f2aba3969ecf548792b429dd7a5de853e21ab6e35747b9',
    'C4': '2f727c7332bdd8ab7a686c990240839918341fb42d8287557e94cc43396ef090',
    'C5': '37264223d4414d8d1d60e1ce3747741851d4d96082c8e0f15a52ea9fc902833a',
    'C6': 'cf7649d74de7b90a2d286d9c8c5a4edba96e73668c16b726263d2ba3ab4ae159',
    'D4': 'e55a954309f3019105e53cd502123a9f04bbf74a19a640fb868614fe6c66271e',
    'D5': '9ca4364efa15872cd6af4eafe246d1cc82e495161ba2100bb6f92c7919e87af9',
    'D6': '92cc9748c5813e62bd2b6f5a18560c50a3fcf59d49c38a3ec3e09cf1177e41d4',
    'D7': '1f70fa1dec30f6f66f3b67d517dcb165740348defe78ab9f3319e060fa13cbaa',
    'D8': '4a4644099cbb8b70d4329cb718174c0a8e30f4a34b331e6e6a7f2111e475184a',
    'E6': 'e47c5e9ff5da35578288e0f9ddfe046a51953b722d4d64fefa7b83e2f4e38b91',
    'E7': '9c1eb19dd12bd0f0482a44dc71354562e3a3c38b7d160dfce13e168f4fdc663f',
    'E8': '15657da8a750170c8b9e0b81caed6c95360f53335ffc566f23ce067eb9a50d83',
    'F4': '6210a7f5092f6aee001e15f1709179f97fdfdb201f414918993a7f542facbb37',
    'G2': '4116f6ad2a79ba24e8356b963e341a17e576e88292c7d1df095bd4c121e5c0c3',
    'A12': '7af792e3d7091e453b0805a7bc871f9ba38f0560e12f5467608bbb60ddd3baa2',
    'D16': '515c7b69843736cb0a506021fb91523646db0341110d830135b14fc0a20f678c',
}


# The Chevalley structure constants of every type up to rank 4 and of the
# Takiff double of C4, in order: the labels, the generators, and each
# stored bracket with its coefficients sorted by basis index.  Each
# coefficient must be an int.  Re-record the same way as the digests above.
STRUCTURE_CASES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                   "D4", "F4", "G2", "takiff(C4)"]


def _structure(label):
    if label == "takiff(C4)":
        return takiff(chevalley_structure("C4"))
    return chevalley_structure(label)


def _structure_digest(ls):
    data = (ls.labels, ls.generators,
            [(ij, sorted(vec.items())) for ij, vec in sorted(ls.brackets.items())])
    return hashlib.sha256(repr(data).encode()).hexdigest()


STRUCTURE_GOLDEN = {
    'A1': '128556adf3e4bb5662f0d4526a3103c033fab970afadf22564f2ac1b1c482d3e',
    'A2': '63f49e802d2a76b45a1bef718d4159c58855412e4e120d3178d91aac9fe3e22e',
    'A3': 'b83f9f9aa83c3cacfe62d2430b7b0c646b517cdfdc287db8f9d3cae884870bea',
    'A4': '44cd16cfc65d9a253ab68b45e1c214a441e7057b2f79335d9d40e20d5c0d9d64',
    'B2': '960500342b804b5484eab75d8c509cd5893229ed87f7fbd11deb793c1caf3b01',
    'B3': '10191cb9137bad6ac4e9f3095e48d975ad16a98f0675569c05298c0583a160c2',
    'B4': 'e0153e42e5600ee9bfeec294b4432f1fbf9ecba46de273efc39245488f764531',
    'C2': '51c01e48ce15eb52b42e1cdbbd9fd835ae3ee2c633315cf820dfc06f08df3e05',
    'C3': '6b1c05cfe14aa4bfc807da7279fb49b75b992576bce8acdb24e93f7a04d8ea98',
    'C4': '86cdb01e6891ad0a9d0396ace5f3e8602c984feffd773b68ce4b8d17adc36ab0',
    'D4': '8aef8c38bde6f7c8394714ca650c1445af1c5d14c9a70c0f1f1f70c053df8505',
    'F4': 'ec48a3062f91bee0b56db367fffa1855130bddbd46537c5111bf6f7803a544c1',
    'G2': 'fcbee5e302e2759857190c5494e5f60d941bcad2121420eb92e89e7752a88fb1',
    'takiff(C4)': 'd2f7062bca93a03e7edecc106c341a108199f695e8aebdc2c9a6bac8dfaa4a81',
}


@pytest.mark.parametrize("label", TYPES)
def test_canonical_json_digests(label):
    got = {(b, m): _digest(b, label, m) for b in BUILDERS for m in MODES}
    assert got == {(b, m): GOLDEN[b, label, m] for b in BUILDERS for m in MODES}


@pytest.mark.parametrize("builder,label", SIDES)
def test_verifier_side_digests(builder, label):
    got = {m: _side_digest(builder, label, m) for m in MODES}
    assert got == {m: SIDE_GOLDEN[builder, label, m] for m in MODES}


@pytest.mark.parametrize("builder,label,order", GROUP_RING_SIDES)
def test_group_ring_side_digests(builder, label, order):
    assert _group_ring_side_digest(builder, label, order) == GROUP_RING_SIDE_GOLDEN[builder, label, order]


@pytest.mark.parametrize("which,label,spec", CLI_CASES)
def test_char_cli_digests(which, label, spec):
    assert _cli_digest(which, label, spec) == CLI_GOLDEN[which, label, spec]


@pytest.mark.parametrize("which,label,with_lambda", FULL_CLI_CASES)
def test_full_char_cli_digests(which, label, with_lambda):
    got = _stdout_digest(_full_char_argv(which, label, with_lambda))
    assert got == FULL_CLI_GOLDEN[which, label, with_lambda]


@pytest.mark.parametrize("label", sorted(FULL_KW_ORDER))
def test_full_verify_kw_cli_digests(label):
    assert _stdout_digest(_full_kw_argv(label)) == FULL_KW_GOLDEN[label]


@pytest.mark.parametrize("case", sorted(SINGULAR_ARGV))
def test_singular_cli_digests(case):
    assert _stdout_digest(SINGULAR_ARGV[case]) == SINGULAR_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GKO_CLI_ARGV))
def test_verify_gko_cli_digests(case):
    assert _run_digest(GKO_CLI_ARGV[case]) == GKO_CLI_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(WEIGHTS_CLI_ARGV))
def test_weights_cli_digests(case):
    assert _run_digest(WEIGHTS_CLI_ARGV[case]) == WEIGHTS_CLI_GOLDEN[case]


@pytest.mark.parametrize("kind,label", ORBIT_CASES)
def test_weyl_orbit_sum_digests(kind, label):
    assert _orbit_digest(kind, label) == ORBIT_GOLDEN[kind, label]


@pytest.mark.parametrize("label", ROOTSYS_TYPES)
def test_root_system_digests(label):
    assert _rootsys_digest(label) == ROOTSYS_GOLDEN[label]


@pytest.mark.parametrize("label", STRUCTURE_CASES)
def test_structure_constant_digests(label):
    ls = _structure(label)
    assert all(type(c) is int for vec in ls.brackets.values() for c in vec.values())
    assert _structure_digest(ls) == STRUCTURE_GOLDEN[label]


if __name__ == "__main__":
    for b in BUILDERS:
        for label in TYPES:
            for m in MODES:
                print(f"    ({b!r}, {label!r}, {m!r}): {_digest(b, label, m)!r},")
    print()
    for b, label in SIDES:
        for m in MODES:
            print(f"    ({b!r}, {label!r}, {m!r}): {_side_digest(b, label, m)!r},")
    print()
    for case in GROUP_RING_SIDES:
        print(f"    {case!r}: {_group_ring_side_digest(*case)!r},")
    print()
    for case in CLI_CASES:
        print(f"    {case!r}: {_cli_digest(*case)!r},")
    print()
    for case in FULL_CLI_CASES:
        print(f"    {case!r}: {_stdout_digest(_full_char_argv(*case))!r},")
    print()
    for label in FULL_KW_ORDER:
        print(f"    {label!r}: {_stdout_digest(_full_kw_argv(label))!r},")
    print()
    for case, argv in SINGULAR_ARGV.items():
        print(f"    {case!r}: {_stdout_digest(argv)!r},")
    print()
    for case, argv in GKO_CLI_ARGV.items():
        print(f"    {case!r}: {_run_digest(argv)!r},")
    print()
    for case, argv in WEIGHTS_CLI_ARGV.items():
        print(f"    {case!r}: {_run_digest(argv)!r},")
    print()
    for case in ORBIT_CASES:
        print(f"    {case!r}: {_orbit_digest(*case)!r},")
    print()
    for label in ROOTSYS_TYPES:
        print(f"    {label!r}: {_rootsys_digest(label)!r},")
    print()
    for label in STRUCTURE_CASES:
        print(f"    {label!r}: {_structure_digest(_structure(label))!r},")
