"""Randomness helpers shared across layers.

The channel, mobility and fault layers derive per-(entity, counter)
uniforms that are a pure function of their inputs — the numpy equivalent of
a counter-based PRNG — so realisations never depend on query order.  The
mixer and the uniform it makes (:func:`counter_uniform`) live here, in one
place, so the layers cannot silently diverge.

:class:`WordStream` is the one reader of the main simulation generator: the
medium's reception and capture coins and every MAC's backoff draw read its
64-bit words in blocks, in call order, and so consume exactly the words the
per-call ``random(n) < p``, ``random() < q`` and ``integers(0, span)`` draws
would.

:func:`normal_uniform_pairs` reads a generator's words in blocks the same
way for the mesh generators: alternating ``standard_normal()`` and
``random()`` values, bit for bit, with numpy's ziggurat run over the block
(its tables, :data:`ZIGGURAT_KI` and :data:`ZIGGURAT_WI`, are copied here).
"""

from __future__ import annotations

import math

import numpy as np


def splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a vectorised counter-based uint64 mixer."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed: int, stream: int, entities, counters) -> np.ndarray:
    """Counter-based uniforms in [0, 1), one per ``(entity, counter)`` pair.

    A pure function of ``(seed, stream, entity, counter)``: the seed mixed
    with a layer's private ``stream`` constant keys the entity (a link, a
    node), which keys the counter (a draw index, an epoch), each through
    :func:`splitmix64`; the top 53 bits of the result make the double, as
    numpy's ``random()`` makes one from a word.  ``entities`` and
    ``counters`` broadcast against each other.
    """
    key = np.uint64(((seed ^ stream) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    mixed = splitmix64(splitmix64(np.asarray(entities, dtype=np.uint64) + key)
                       + np.asarray(counters, dtype=np.uint64))
    return (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def threshold(probability: float) -> int:
    """The word bound of a coin of ``probability``: ``word < threshold(p)``
    exactly when ``random() < p`` on that word.

    numpy's ``next_double`` is ``(word >> 11) * 2**-53``, and scaling by a
    power of two is exact, so the comparison is ``word >> 11 < p * 2**53``,
    which for an integer left side is ``word >> 11 < ceil(p * 2**53)``, that
    is ``word < ceil(p * 2**53) << 11``.  ``p = 1`` gives ``2**64``, above
    every word; ``p = 0`` gives 0, below every word.
    """
    return math.ceil(probability * 9007199254740992.0) << 11


#: numpy's ziggurat tables for ``standard_normal`` (``ki_double`` and
#: ``wi_double``), read back from numpy's own draws: a word with index
#: ``idx`` (its low 8 bits) and ``rabs = 1`` (bits 9-60) draws exactly
#: ``wi[idx]``, and ``ki[idx]`` is the smallest ``rabs`` whose draw reads a
#: second word.  ``tests/test_rng.py`` probes every entry again.  The
#: numbers are text parsed at import: as 512 numeric literals they cost
#: about 0.2 MiB of peak RSS in a process that compiles the module.
ZIGGURAT_KI = np.array([int(word, 16) for word in """
    0x000EF33D8025EF6A 0x0000000000000000 0x000C08BE98FBC6A8 0x000DA354FABD8142
    0x000E51F67EC1EEEA 0x000EB255E9D3F77E 0x000EEF4B817ECAB9 0x000F19470AFA44AA
    0x000F37ED61FFCB18 0x000F4F469561255C 0x000F61A5E41BA396 0x000F707A755396A4
    0x000F7CB2EC28449A 0x000F86F10C6357D3 0x000F8FA6578325DE 0x000F9724C74DD0DA
    0x000F9DA907DBF509 0x000FA360F581FA74 0x000FA86FDE5B4BF8 0x000FACF160D354DC
    0x000FB0FB6718B90F 0x000FB49F8D5374C6 0x000FB7EC2366FE77 0x000FBAECE9A1E50E
    0x000FBDAB9D040BED 0x000FC03060FF6C57 0x000FC2821037A248 0x000FC4A67AE25BD1
    0x000FC6A2977AEE31 0x000FC87AA92896A4 0x000FCA325E4BDE85 0x000FCBCCE902231A
    0x000FCD4D12F839C4 0x000FCEB54D8FEC99 0x000FD007BF1DC930 0x000FD1464DD6C4E6
    0x000FD272A8E2F450 0x000FD38E4FF0C91E 0x000FD49A9990B478 0x000FD598B8920F53
    0x000FD689C08E99EC 0x000FD76EA9C8E832 0x000FD848547B08E8 0x000FD9178BAD2C8C
    0x000FD9DD07A7ADD2 0x000FDA9970105E8C 0x000FDB4D5DC02E20 0x000FDBF95C5BFCD0
    0x000FDC9DEBB99A7D 0x000FDD3B8118729D 0x000FDDD288342F90 0x000FDE6364369F64
    0x000FDEEE708D514E 0x000FDF7401A6B42E 0x000FDFF46599ED40 0x000FE06FE4BC24F2
    0x000FE0E6C225A258 0x000FE1593C28B84C 0x000FE1C78CBC3F99 0x000FE231E9DB1CAA
    0x000FE29885DA1B91 0x000FE2FB8FB54186 0x000FE35B33558D4A 0x000FE3B799D0002A
    0x000FE410E99EAD7F 0x000FE46746D47734 0x000FE4BAD34C095C 0x000FE50BAED29524
    0x000FE559F74EBC78 0x000FE5A5C8E41212 0x000FE5EF3E138689 0x000FE6366FD91078
    0x000FE67B75C6D578 0x000FE6BE661E11AA 0x000FE6FF55E5F4F2 0x000FE73E5900A702
    0x000FE77B823E9E39 0x000FE7B6E37070A2 0x000FE7F08D774243 0x000FE8289053F08C
    0x000FE85EFB35173A 0x000FE893DC840864 0x000FE8C741F0CEBC 0x000FE8F9387D4EF6
    0x000FE929CC879B1D 0x000FE95909D388EA 0x000FE986FB939AA2 0x000FE9B3AC714866
    0x000FE9DF2694B6D5 0x000FEA0973ABE67C 0x000FEA329CF166A4 0x000FEA5AAB32952C
    0x000FEA81A6D5741A 0x000FEAA797DE1CF0 0x000FEACC85F3D920 0x000FEAF07865E63C
    0x000FEB13762FEC13 0x000FEB3585FE2A4A 0x000FEB56AE3162B4 0x000FEB76F4E284FA
    0x000FEB965FE62014 0x000FEBB4F4CF9D7C 0x000FEBD2B8F449D0 0x000FEBEFB16E2E3E
    0x000FEC0BE31EBDE8 0x000FEC2752B15A15 0x000FEC42049DAFD3 0x000FEC5BFD29F196
    0x000FEC75406CEEF4 0x000FEC8DD2500CB4 0x000FECA5B6911F12 0x000FECBCF0C427FE
    0x000FECD38454FB15 0x000FECE97488C8B3 0x000FECFEC47F91B7 0x000FED1377358528
    0x000FED278F844903 0x000FED3B10242F4C 0x000FED4DFBAD586E 0x000FED605498C3DD
    0x000FED721D414FE8 0x000FED8357E4A982 0x000FED9406A42CC8 0x000FEDA42B85B704
    0x000FEDB3C8746AB4 0x000FEDC2DF416652 0x000FEDD171A46E52 0x000FEDDF813C8AD3
    0x000FEDED0F909980 0x000FEDFA1E0FD414 0x000FEE06AE124BC4 0x000FEE12C0D95A06
    0x000FEE1E579006E0 0x000FEE29734B6524 0x000FEE34150AE4BC 0x000FEE3E3DB89B3C
    0x000FEE47EE2982F4 0x000FEE51271DB086 0x000FEE59E9407F41 0x000FEE623528B42E
    0x000FEE6A0B5897F1 0x000FEE716C3E077A 0x000FEE7858327B82 0x000FEE7ECF7B06BA
    0x000FEE84D2484AB2 0x000FEE8A60B66343 0x000FEE8F7ACCC851 0x000FEE94207E25DA
    0x000FEE9851A829EA 0x000FEE9C0E13485C 0x000FEE9F557273F4 0x000FEEA22762CCAE
    0x000FEEA4836B42AC 0x000FEEA668FC2D71 0x000FEEA7D76ED6FA 0x000FEEA8CE04FA0A
    0x000FEEA94BE8333B 0x000FEEA950296410 0x000FEEA8D9C0075E 0x000FEEA7E7897654
    0x000FEEA678481D24 0x000FEEA48AA29E83 0x000FEEA21D22E4DA 0x000FEE9F2E352024
    0x000FEE9BBC26AF2E 0x000FEE97C524F2E4 0x000FEE93473C0A3A 0x000FEE8E40557516
    0x000FEE88AE369C7A 0x000FEE828E7F3DFD 0x000FEE7BDEA7B888 0x000FEE749BFF37FF
    0x000FEE6CC3A9BD5E 0x000FEE64529E007E 0x000FEE5B45A32888 0x000FEE51994E57B6
    0x000FEE474A0006CF 0x000FEE3C53E12C50 0x000FEE30B2E02AD8 0x000FEE2462AD8205
    0x000FEE175EB83C5A 0x000FEE09A22A1447 0x000FEDFB27E349CC 0x000FEDEBEA76216C
    0x000FEDDBE422047E 0x000FEDCB0ECE39D3 0x000FEDB964042CF4 0x000FEDA6DCE938C9
    0x000FED937237E98D 0x000FED7F1C38A836 0x000FED69D2B9C02B 0x000FED538D06AE00
    0x000FED3C41DEA422 0x000FED23E76A2FD8 0x000FED0A732FE644 0x000FECEFDA07FE34
    0x000FECD4100EB7B8 0x000FECB708956EB4 0x000FEC98B61230C1 0x000FEC790A0DA978
    0x000FEC57F50F31FE 0x000FEC356686C962 0x000FEC114CB4B335 0x000FEBEB948E6FD0
    0x000FEBC429A0B692 0x000FEB9AF5EE0CDC 0x000FEB6FE1C98542 0x000FEB42D3AD1F9E
    0x000FEB13B00B2D4B 0x000FEAE2591A02E9 0x000FEAAEAE992257 0x000FEA788D8EE326
    0x000FEA3FCFFD73E5 0x000FEA044C8DD9F6 0x000FE9C5D62F563B 0x000FE9843BA947A4
    0x000FE93F471D4728 0x000FE8F6BD76C5D6 0x000FE8AA5DC4E8E6 0x000FE859E07AB1EA
    0x000FE804F690A940 0x000FE7AB488233C0 0x000FE74C751F6AA5 0x000FE6E8102AA202
    0x000FE67DA0B6ABD8 0x000FE60C9F38307E 0x000FE5947338F742 0x000FE51470977280
    0x000FE48BD436F458 0x000FE3F9BFFD1E37 0x000FE35D35EEB19C 0x000FE2B5122FE4FE
    0x000FE20003995557 0x000FE13C82788314 0x000FE068C4EE67B0 0x000FDF82B02B71AA
    0x000FDE87C57EFEAA 0x000FDD7509C63BFD 0x000FDC46E529BF13 0x000FDAF8F82E0282
    0x000FD985E1B2BA75 0x000FD7E6EF48CF04 0x000FD613ADBD650B 0x000FD40149E2F012
    0x000FD1A1A7B4C7AC 0x000FCEE204761F9E 0x000FCBA8D85E11B2 0x000FC7D26ECD2D22
    0x000FC32B2F1E22ED 0x000FBD6581C0B83A 0x000FB606C4005434 0x000FAC40582A2874
    0x000F9E971E014598 0x000F89FA48A41DFC 0x000F66C5F7F0302C 0x000F1A5A4B331C4A
""".split()], dtype=np.uint64)

ZIGGURAT_WI = np.array([float(value) for value in """
    8.683627060801306e-16 4.779330175727737e-17 6.354352417405262e-17 7.454870481247696e-17
    8.3293668157931e-17 9.068060405059482e-17 9.714860076567762e-17 1.0294750314241019e-16
    1.0823430288447684e-16 1.131147019610903e-16 1.176635945702292e-16 1.2193617278714363e-16
    1.2597439914637093e-16 1.2981099886264032e-16 1.3347203736824123e-16 1.3697864842571203e-16
    1.4034823001242382e-16 1.4359529452056943e-16 1.4673208742364422e-16 1.4976904668391037e-16
    1.5271515003596198e-16 1.5557818169460764e-16 1.5836494009290885e-16 1.6108140175274928e-16
    1.6373285203969853e-16 1.6632399058420835e-16 1.6885901708676596e-16 1.713417017655966e-16
    1.737754436586486e-16 1.7616331923000996e-16 1.7850812316976727e-16 1.8081240285799152e-16
    1.830784876482675e-16 1.853085138861802e-16 1.8750444639373882e-16 1.896680970077476e-16
    1.918011406483862e-16 1.9390512930625104e-16 1.9598150426628824e-16 1.9803160683128174e-16
    2.000566877627333e-16 2.0205791562071654e-16 2.0403638415480212e-16 2.0599311887403706e-16
    2.079290829041402e-16 2.0984518222370352e-16 2.1174227035760342e-16 2.1362115259449868e-16
    2.1548258978581458e-16 2.1732730177564367e-16 2.191559705042727e-16 2.2096924282235318e-16
    2.2276773304789553e-16 2.2455202529414355e-16 2.263226755928568e-16 2.280802138345017e-16
    2.2982514554424684e-16 2.3155795351040804e-16 2.3327909928004356e-16 2.3498902453470955e-16
    2.3668815235791604e-16 2.3837688840454243e-16 2.4005562198135063e-16 2.4172472704675025e-16
    2.433845631371103e-16 2.4503547622614954e-16 2.466777995232705e-16 2.4831185421610877e-16
    2.4993795016204524e-16 2.515563865329658e-16 2.5316745241713583e-16 2.547714273816944e-16
    2.563685819989397e-16 2.579591783392867e-16 2.5954347043351707e-16 2.6112170470670194e-16
    2.6269412038597256e-16 2.6426094988411895e-16 2.658224191608307e-16 2.6737874806323633e-16
    2.689301506472616e-16 2.704768354811995e-16 2.720190059327732e-16 2.735568604408679e-16
    2.7509059277301666e-16 2.7662039226963903e-16 2.781464440759544e-16 2.79668929362423e-16
    2.8118802553450207e-16 2.827039064324479e-16 2.842167425218406e-16 2.8572670107546015e-16
    2.87233946347098e-16 2.887386397378482e-16 2.9024093995538423e-16 2.9174100316669455e-16
    2.9323898314471816e-16 2.947350314092935e-16 2.9622929736280665e-16 2.977219284209029e-16
    2.992130701386013e-16 3.007028663321331e-16 3.0219145919680615e-16 3.036789894211802e-16
    3.051655962978219e-16 3.0665141783089545e-16 3.081365908408297e-16 3.0962125106629225e-16
    3.111055332636893e-16 3.125895713043999e-16 3.140734982699446e-16 3.1555744654528006e-16
    3.1704154791040285e-16 3.1852593363044065e-16 3.2001073454440114e-16 3.214960811527447e-16
    3.2298210370394156e-16 3.244689322801698e-16 3.2595669688230784e-16 3.2744552751437067e-16
    3.2893555426753697e-16 3.3042690740391284e-16 3.3191971744017523e-16 3.3341411523123725e-16
    3.3491023205407785e-16 3.364081996918765e-16 3.37908150518595e-16 3.394102175841489e-16
    3.409145347003126e-16 3.424212365275018e-16 3.4393045866258313e-16 3.454423377278584e-16
    3.4695701146137835e-16 3.4847461880874137e-16 3.499953000165381e-16 3.5151919672760744e-16
    3.53046452078274e-16 3.5457721079774357e-16 3.5611161930983884e-16 3.5764982583726505e-16
    3.59191980508603e-16 3.6073823546823514e-16 3.6228874498941915e-16 3.6384366559073444e-16
    3.65403156156137e-16 3.669673780588701e-16 3.685364952894914e-16 3.7011067458828983e-16
    3.716900855823823e-16 3.7327490092779435e-16 3.7486529645684887e-16 3.7646145133120287e-16
    3.7806354820089604e-16 3.7967177336979443e-16 3.8128631696783774e-16 3.829073731305243e-16
    3.8453514018609596e-16 3.8616982085091493e-16 3.878116224335587e-16 3.894607570481926e-16
    3.9111744183782054e-16 3.9278189920805415e-16 3.944543570720877e-16 3.9613504910761354e-16
    3.9782421502646826e-16 3.995221008578565e-16 4.012289592460629e-16 4.029450497636328e-16
    4.04670639241075e-16 4.0640600211422504e-16 4.0815142079049387e-16 4.0990718603532664e-16
    4.1167359738030257e-16 4.134509635544236e-16 4.1523960294026883e-16 4.170398440568316e-16
    4.1885202607101123e-16 4.206764993399015e-16 4.2251362598620494e-16 4.243637805093078e-16
    4.262273504347798e-16 4.2810473700531167e-16 4.2999635591638323e-16 4.3190263810026294e-16
    4.338240305622791e-16 4.357609972736849e-16 4.3771402012585875e-16 4.3968359995105214e-16
    4.4167025761542035e-16 4.4367453519065673e-16 4.456969972112043e-16 4.477382320247534e-16
    4.49798853244555e-16 4.518795013130059e-16 4.539808451870034e-16 4.561035841567422e-16
    4.582484498109567e-16 4.604162081631153e-16 4.626076619547846e-16 4.648236531543207e-16
    4.670650656712631e-16 4.693328283093329e-16 4.716279179838351e-16 4.739513632325867e-16
    4.763042480533137e-16 4.786877161048723e-16 4.811029753147417e-16 4.835513029411525e-16
    4.860340511450812e-16 4.885526531353603e-16 4.91108629959527e-16 4.937035980240335e-16
    4.963392774403987e-16 4.990175013091822e-16 5.017402260718089e-16 5.045095430818727e-16
    5.073276915733542e-16 5.101970732341562e-16 5.131202686306784e-16 5.161000557743228e-16
    5.191394311757699e-16 5.222416338000234e-16 5.254101724177597e-16 5.286488569504945e-16
    5.3196183453384e-16 5.353536311816497e-16 5.388292001334053e-16 5.423939782201712e-16
    5.46053951907478e-16 5.498157350892814e-16 5.536866612467876e-16 5.576748932926576e-16
    5.617895553555417e-16 5.660408920082422e-16 5.704404621291389e-16 5.750013768919895e-16
    5.797385945724594e-16 5.846692893455479e-16 5.898133176477899e-16 5.951938149641444e-16
    6.008379696271908e-16 6.067780409333449e-16 6.130527208725282e-16 6.197089894581626e-16
    6.268046963301284e-16 6.344122407127506e-16 6.426239659548055e-16 6.515603317344994e-16
    6.613827885097664e-16 6.723150462505587e-16 6.846803417564259e-16 6.98971833638762e-16
    7.159994934830664e-16 7.372424301798799e-16 7.658936370805573e-16 8.113849337656484e-16
""".split()])

#: The tables over a word's low 9 bits, ``idx`` and the sign: a negative
#: draw is ``rabs * -wi[idx]``, the exact negation of ``rabs * wi[idx]``.
_SIGNED_WI = np.concatenate((ZIGGURAT_WI, -ZIGGURAT_WI))
_SIGNED_KI = np.concatenate((ZIGGURAT_KI, ZIGGURAT_KI))

#: PCG64's 128-bit LCG multiplier: a state steps to ``state * MULT + inc``.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1
_RABS_MASK = (1 << 52) - 1


def _pcg64(generator: np.random.Generator) -> np.random.PCG64:
    bit_generator = generator.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError("repro.rng reads a PCG64 generator's words, got "
                        f"{type(bit_generator).__name__}")
    return bit_generator


def _buffer(bit_generator: np.random.PCG64) -> tuple[int, int]:
    """PCG64's 32-bit buffer: ``has_uint32`` and ``uinteger``."""
    state = bit_generator.state
    return state["has_uint32"], state["uinteger"]


def _set_buffer(bit_generator: np.random.PCG64, has_uint32: int, uinteger: int) -> None:
    """Write PCG64's 32-bit buffer back, which ``advance`` clears."""
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    bit_generator.state = state


def _ziggurat(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every word of ``words`` read as a ``standard_normal()`` fast-path draw
    and as a ``random()``: the normals, whether each is a fast draw, the
    uniforms.

    numpy's ziggurat splits a word into ``idx`` (bits 0-7), a sign (bit 8)
    and ``rabs`` (bits 9-60); the draw is ``±rabs * wi[idx]``, returned
    from that one word exactly when ``rabs < ki[idx]``.
    """
    signed_index = (words & 0x1FF).astype(np.intp)
    rabs = (words >> 9) & _RABS_MASK
    normals = rabs.astype(np.float64) * _SIGNED_WI.take(signed_index)
    uniforms = (words >> 11).astype(np.float64) * 2.0 ** -53
    return normals, rabs < _SIGNED_KI.take(signed_index), uniforms


def _scalar_normal(generator: np.random.Generator,
                   bit_generator: np.random.PCG64) -> tuple[float, int]:
    """numpy's own ``standard_normal()`` and the number of words it read,
    counted by stepping the LCG from the state it started at."""
    start = bit_generator.state["state"]
    value = float(generator.standard_normal())
    end = bit_generator.state["state"]["state"]
    state, increment = start["state"], start["inc"]
    words = 0
    while state != end:
        state = (state * PCG64_MULTIPLIER + increment) & _MASK_128
        words += 1
    return value, words


def normal_uniform_pairs(generator: np.random.Generator,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``count`` alternating ``(standard_normal(), random())``
    calls on ``generator``, as two float64 arrays, bit for bit.

    The calls' words are fetched in blocks (``random_raw``), never more than
    the ``2 * count`` the calls read at least, and read as numpy reads them:
    a uniform is ``(word >> 11) * 2**-53``, a normal the ziggurat's fast
    path (:func:`_ziggurat`).  A word the fast path rejects (about 1.5%)
    is drawn by numpy itself: the generator is rewound to that word
    (``advance``), ``standard_normal()`` draws from it, and the words it read
    are counted; the next uniform is the word after them, so the block reads
    on from there with the two kinds' parity shifted.  The generator is left
    where the calls leave it, 32-bit buffer (``has_uint32`` / ``uinteger``)
    included: ``advance`` clears the buffer, so it is written back.
    """
    bit_generator = _pcg64(generator)
    values = np.empty(2 * count)
    slot = 0                                       # the next value to fill
    buffer: tuple[int, int] | None = None          # saved before the first rewind
    while slot < values.size:
        words = bit_generator.random_raw(values.size - slot)
        normals, fast, uniforms = _ziggurat(words)
        position = words.size                      # the generator's word in ``words``
        at = 0                                     # the word of value ``slot``
        for word in np.flatnonzero(~fast).tolist():
            if word < at or (slot + word - at) % 2:
                continue                           # read already, or a uniform's
            _fill(values, slot, normals[at:word], uniforms[at:word])
            slot += word - at
            if buffer is None:
                buffer = _buffer(bit_generator)
            bit_generator.advance(word - position)
            values[slot], read = _scalar_normal(generator, bit_generator)
            slot += 1
            at = position = word + read
            if at >= words.size:
                break                              # the normal read past the block
        else:
            _fill(values, slot, normals[at:], uniforms[at:])
            slot += words.size - at
        if position < words.size:
            bit_generator.advance(words.size - position)
    if buffer is not None:
        _set_buffer(bit_generator, *buffer)
    return values[0::2], values[1::2]


def _fill(values: np.ndarray, slot: int, normals: np.ndarray,
          uniforms: np.ndarray) -> None:
    """Fast-path words from value ``slot`` on: a normal's at an even slot."""
    values[slot:slot + uniforms.size] = uniforms
    first = slot % 2
    values[slot + first:slot + normals.size:2] = normals[first::2]


class WordStream:
    """The main generator's 64-bit words, read in blocks and served in order.

    Every consumer of one generator shares one stream: a block read by one
    consumer and a word read by the next are the words a per-call draw of
    each would have read, in the same order, because each kind of draw here
    consumes words exactly as its numpy counterpart does:

    * a coin, ``word() < threshold(p)`` (or :meth:`take` for a frame's worth
      of them), is ``random() < p``: one word each;
    * :meth:`bounded` is ``int(integers(0, span))``: numpy's Lemire rule over
      PCG64's ``next_uint32``, which splits a word into two 32-bit halves
      and buffers the high one (``has_uint32`` / ``uinteger``) for the next
      32-bit read; a coin reads a whole word and leaves that buffer alone.

    :meth:`generator` hands the generator back at its logical position: the
    unread words are rewound (``advance(-unread)``), the 32-bit buffer is
    written back — the stale ``uinteger`` numpy keeps after consuming it
    included — and the block is dropped.  Draws made on the handed-back
    generator are picked up by the next block, so direct draws and stream
    draws interleave as freely as direct draws alone.
    """

    #: Most words one fetch reads from the bit generator.
    BLOCK = 256

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        self._bit_generator = _pcg64(generator)
        self._block: list[int] = []
        self._next = 0
        #: Whether the stream holds the generator: the block and the 32-bit
        #: buffer below are the generator's logical state until handed back.
        self._held = False
        self._has_uint32 = 0
        self._uinteger = 0

    def _hold(self) -> None:
        self._has_uint32, self._uinteger = _buffer(self._bit_generator)
        self._held = True

    def _fill(self, count: int) -> None:
        """Keep the unread words and fetch until ``count`` are unread."""
        if not self._held:
            self._hold()
        block = self._block[self._next:]
        while len(block) < count:
            block += self._bit_generator.random_raw(self.BLOCK).tolist()
        self._block = block
        self._next = 0

    def take(self, count: int) -> list[int]:
        """The next ``count`` words: the coins of ``random(count) < p``."""
        start = self._next
        stop = start + count
        if stop > len(self._block):
            self._fill(count)
            start, stop = 0, count
        self._next = stop
        return self._block[start:stop]

    def word(self) -> int:
        """The next word: the coin of one ``random() < p``."""
        index = self._next
        if index == len(self._block):
            self._fill(1)
            index = 0
        self._next = index + 1
        return self._block[index]

    def _uint32(self) -> int:
        # PCG64's next_uint32: the buffered high half, else a fresh word's
        # low half, buffering its high half.
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self.word()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, span: int) -> int:
        """``int(generator.integers(0, span))`` for ``1 <= span <= 2**32 - 1``.

        numpy draws such a scalar by Lemire's rule over 32-bit words
        (``random_bounded_uint64_fill``): ``m = uint32 * span``; when ``m``'s
        low 32 bits fall below ``span``, it redraws while they fall below
        ``(2**32 - span) % span``; the draw is ``m >> 32``.  ``span == 1``
        draws nothing.
        """
        if span == 1:
            return 0
        if not self._held:
            self._hold()
        product = self._uint32() * span
        if product & 0xFFFFFFFF < span:
            floor = (0x100000000 - span) % span
            while product & 0xFFFFFFFF < floor:
                product = self._uint32() * span
        return product >> 32

    def generator(self) -> np.random.Generator:
        """Hand the generator back at its logical position (see the class)."""
        if self._held:
            unread = len(self._block) - self._next
            bit_generator = self._bit_generator
            if unread:
                bit_generator.advance(-unread)
            _set_buffer(bit_generator, self._has_uint32, self._uinteger)
            self._block = []
            self._next = 0
            self._held = False
        return self._generator
