"""Golden artifacts: sha256 of every file a small CLI run writes.

Each case runs the CLI in-process on small inputs and compares the digest
of every CSV, PGM and JSON file in its output directory, and of its
"wrote <path>" stdout lines, against a pinned value. The metadata JSON and
the stdout lines embed input and output paths, so the case's temporary
root is replaced by a fixed placeholder before they are hashed.
A refactor of the sampling core or of the CLI must leave all of them
byte-identical; a digest that changes on purpose is re-pinned together
with the reason.
"""

import hashlib
import itertools

import numpy as np
import pytest
from click.testing import CliRunner

from stochcirc import fixture_text
from stochcirc.cli import main
from stochcirc.gates import Cpt
from stochcirc.mrf import random_dot_stereogram
from stochcirc.pgm import write_pgm

SCHEDULES = ["parallel", "serial", "random-scan"]
FORMATS = ["8,4", "float", "16,8"]


def _inputs(root):
    """Write every input file the cases read; returns {key: path}."""
    paths = {"icu": root / "icu.json", "cpt": root / "cpt.json",
             "data": root / "data.txt"}
    paths["icu"].write_text(fixture_text("icu_monitor.json"))
    paths["cpt"].write_text(Cpt(2, 2, [[0.5, 0.25, 0.125, 0.125],
                                       [0.1, 0.2, 0.3, 0.4],
                                       [0.7, 0.1, 0.1, 0.1],
                                       [0.25, 0.25, 0.25, 0.25]]).to_json())
    # 16x16 is the default pair; 2x17 and 1x20 put the first site of the
    # greedy coloring's color 0 on an odd-parity square
    for tag, (h, w, seed) in (("", (16, 16, 3)), ("2x17", (2, 17, 5)),
                              ("1x20", (1, 20, 6))):
        pair, _ = random_dot_stereogram(h, w, 2, seed=seed)
        for key, image in (("left", pair.first), ("right", pair.second)):
            paths[key + tag] = root / f"{key}{tag}.pgm"
            write_pgm(paths[key + tag], image)
    rng = np.random.default_rng(4)
    protos = rng.integers(0, 2, size=(2, 8))
    rows = np.where(rng.random((30, 8)) < 0.1, 1 - protos[np.arange(30) % 2],
                    protos[np.arange(30) % 2])
    np.savetxt(paths["data"], rows, fmt="%d")
    return paths


def _chain_cases():
    commands = {
        "query": ["query", "{icu}", "--evidence", "alarm=1", "--sweeps", "2000"],
        "run": ["--fault-rate", "0.01", "run", "{icu}", "--sweeps", "1000"],
        "spike": ["spike", "run", "{icu}", "--evidence", "alarm=1",
                  "--sweeps", "400"],
    }
    for (cmd, args), schedule, fmt in itertools.product(
            commands.items(), SCHEDULES, FORMATS):
        yield f"{cmd}-{schedule}-{fmt}", ["--schedule", schedule, "--format", fmt] + args


CASES = dict(_chain_cases())
CASES.update({
    "gate-sample": ["gate", "sample", "--cpt", "{cpt}", "--input", "2", "-n", "2000"],
    "precision-sweep": ["precision-sweep", "--outcomes", "100", "--per-bin", "100",
                        "--bits", "4,8"],
    "fault-report": ["fault-report", "{icu}", "--rates", "0,0.01", "--sweeps", "300"],
    "stereo-anneal": ["stereo", "{left}", "{right}", "-d", "6", "--sweeps", "30"],
    "stereo-float": ["--format", "float", "stereo", "{left}", "{right}", "-d", "6",
                     "--sweeps", "30", "--anneal", "off"],
    "motion": ["motion", "{left}", "{right}", "-d", "5", "--sweeps", "20"],
    "motion-d9": ["motion", "{left}", "{right}", "-d", "9", "--sweeps", "20"],
    "stereo-anneal-off": ["--format", "8,4", "stereo", "{left}", "{right}", "-d", "6",
                          "--sweeps", "30", "--anneal", "off"],
    "stereo-6,2": ["--format", "6,2", "stereo", "{left}", "{right}", "-d", "6",
                   "--sweeps", "30"],
    "stereo-10,5": ["--format", "10,5", "stereo", "{left}", "{right}", "-d", "6",
                    "--sweeps", "30"],
    "stereo-2x17": ["stereo", "{left2x17}", "{right2x17}", "-d", "4", "--sweeps", "30"],
    "stereo-1x20": ["stereo", "{left1x20}", "{right1x20}", "-d", "4", "--sweeps", "30"],
    "stereo-serial": ["--schedule", "serial", "stereo", "{left}", "{right}", "-d", "6",
                      "--sweeps", "30"],
    "dpmm": ["dpmm", "run", "{data}", "--sweeps", "60", "--burn-in", "10"],
    "compile": ["--schedule", "serial", "compile", "{icu}", "--kernel", "mh",
                "--evidence", "alarm=1"],
})

ROOT_PLACEHOLDER = b"<root>"


def artifact_digests(case, root):
    """Run one case under root; returns {file name or "stdout": sha256 hex}.

    CSV and PGM files are hashed as written; JSON files and the "wrote"
    stdout lines are hashed with the root replaced by ROOT_PLACEHOLDER.
    """
    paths = _inputs(root)
    out = root / "out"
    argv = ["--seed", "7", "--out-dir", str(out)]
    argv += [a.format(**paths) for a in CASES[case]]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.output

    def digest(data, normalize):
        if normalize:
            data = data.replace(str(root).encode(), ROOT_PLACEHOLDER)
        return hashlib.sha256(data).hexdigest()

    digests = {p.name: digest(p.read_bytes(), p.suffix == ".json")
               for p in sorted(out.iterdir()) if p.suffix in (".csv", ".pgm", ".json")}
    wrote = "".join(line + "\n" for line in result.output.splitlines()
                    if line.startswith("wrote "))
    digests["stdout"] = digest(wrote.encode(), True)
    return digests


# Every digest except the spike random-scan ones predates the shared sweep
# loop. Those three were re-pinned when the spiking realization began to
# follow the random-scan stream (one scan draw per epoch) instead of cycling
# the singleton groups in name order. The "_meta.json", "assembly.json" and
# "stdout" digests were pinned before the CLI's output code was folded into
# one writer, which had to leave them unchanged. The motion-d9 and
# stereo-{anneal-off,6,2,10,5,2x17,1x20,serial} digests were pinned before
# mrf.solve learned to lower lattices straight to checkerboard lanes: they
# cover the T=1 ladder, three lane formats, odd-parity color 0 on 2xN and
# 1xN lattices, nine motion candidates and the serial reference fallback.
# The query_meta.json and spike_run_meta.json digests were re-pinned when
# query and spike run began to record their trace's metadata (seed, kernel,
# schedule, format, burn-in, clamps), and dpmm_run_meta.json when dpmm run
# began to record its format: before, the metadata of runs that drew
# differently (three formats, or three schedules of spike run) was identical.
GOLDEN = {
    'compile': {
        'assembly.json': '89b9b64118603af5a2afeb71ace77582cb21913c15b929f7ac1eca254965bd55',
        'compile_meta.json': '9561528901e419d1fbb4849354326e019986d80dc72797d9a3d68cda73e75d68',
        'stdout': 'd7d64d46daf09be8c3de02bc89a7e7e0e5c949b55137686249e0592b433439bc',
    },
    'dpmm': {
        'assignments.csv': 'f23e57911f6384d52e1d3959f77bf8b5d5bd4f4936df9742a3e62f6d9ceaf61b',
        'cluster_00_n17.pgm': '8d762cd9f4057ab71ae9470b4d090d734ee8bb7b4321a21e6fe4e732818b6a83',
        'cluster_01_n13.pgm': 'e8c0ff8b92cacd01c25829736a2563c6b7860a8df53b3fd26d4ab43da57c1481',
        'cluster_counts.csv': '791246d2bdc94720470f51e2a4ca3edd4f7428f08db4daad5235e0dbbbd694ca',
        'dpmm_run_meta.json': 'ad62b3611dade4c1c934dbd804bba5f141ee4864d6a70e48a2f09883e916f409',
        'stdout': 'b310794a1086ced0a8cb1b00911cee23500d709bfca2dd9c71f1de4e42b897ee',
    },
    'fault-report': {
        'fault_report.csv': '3dca79a2e977597d2d0b33ab48d103aae0434a28ebcf611ec71721c5723b3b68',
        'fault_report_meta.json': 'ec558d5ce93a07742e0e2a1195ee70fe7c64b3d9f8088e8fff5c2e588ef72070',
        'stdout': 'd6aff99febb9c04f11583f2ae4a67527bbe0752a011bbbbe3b29a41e534b7e7f',
    },
    'gate-sample': {
        'gate_sample.csv': '176ba982051f5d485dd9c5dee29a399069c6383bd02c1a1d7716a437547bdb06',
        'gate_sample_meta.json': 'a37124387b13c9b7fd58f89ec1c5c3f1744442ddb672b5a5d6ddfe12c51c7f6f',
        'stdout': '0b8dc7bd0f7fadbc1d27c337acf94440dddee825ea7a797efb13d696281ae427',
    },
    'motion': {
        'motion_energy.csv': 'bfd0dab8de1bf97292c60d81e0d96c0bfa6cd5371a2b13efd34fed8ddbb6776a',
        'motion_labels.pgm': '59829055524a0bd54d2813e887d76a5b1afa1686863efd4b59f2c70d3b17c672',
        'motion_meta.json': '2d2cb851c92b4cb2ef16b61966a8bccb02b31dc92ced1bfe447e4ad5624676e6',
        'stdout': '7107a55a3d577d64a1c010cdebcef6bfd216f382bd950ea0c95bca2a1a93cbd1',
    },
    'motion-d9': {
        'motion_energy.csv': '2f4886283ed1f515c3a28dd470434f9c584d9185b11f8b07cbab0ab8724133cb',
        'motion_labels.pgm': 'b9ae1916134428e788bd3657ae20254dbb3640d6619f6b85275bf790a6ed664b',
        'motion_meta.json': '950d1962c5eb59c68dae341386f387559fbf9444ec1b8d071e688afad30d7cf4',
        'stdout': '7107a55a3d577d64a1c010cdebcef6bfd216f382bd950ea0c95bca2a1a93cbd1',
    },
    'precision-sweep': {
        'precision_sweep.csv': 'c79b97e0dfc7c07347554fc34aa4762d4b33c3b1742ec9569e2de316ab7f5c0c',
        'precision_sweep_meta.json': 'da1af20bc330acd8763b25f134f59a50a19bc4cb7cc76438acf3b86c5aa2f155',
        'stdout': '5bd335b8c821f01e8050b58b823b569fb1f394678a5108d368a640abb5bbae6d',
    },
    'query-parallel-16,8': {
        'marginals.csv': '5aabcd9808c3adcaae7058373b1ef9e10752a3eb5ed995a9d56b37fdd18f0675',
        'query_meta.json': 'e6c856733fbd4d2e3c660e7f6fdbab7a713fc198ea6359f8448f2bf70bf5c4be',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-parallel-8,4': {
        'marginals.csv': '1a9120975285dec161fac35e77c51b51df8a51ffa763bb104226e051f18a7f34',
        'query_meta.json': '8758916ab4c8f302e63f4619a14517ebcc0f382bd6160f16aca2f4493ddec156',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-parallel-float': {
        'marginals.csv': 'b0376f96ad3f4317cd25a3a195a67ff0b63324d15a9e1f3c60d48269912ea1b5',
        'query_meta.json': '60f8eeb1302e79703b3662b6ddcb9e2e1cd0b9249cf0e3be8bada3a4a80af643',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-random-scan-16,8': {
        'marginals.csv': '22cf613e4af83398dadc8a0bb6c9d293013c0642d51e7eb2d1bb3a409cc497de',
        'query_meta.json': '67a6059033385bfad01336d79eed928a25068f7cf827b0e1603131f9685b85a8',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-random-scan-8,4': {
        'marginals.csv': '5125c64db99253f1e383e587af23abad518650f82d0375a5d206aa3a7bac063f',
        'query_meta.json': 'c2a782d70e7a2c02b2ad4b33f05ca2236f77031f4419519eea4872b0720c0b60',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-random-scan-float': {
        'marginals.csv': 'dc244c287f3823551302fe6462d9843f04f05253a539074388bb29981994db54',
        'query_meta.json': '4d82a9a9f2a22e26bbc86525bdff93c088ab39f849e64bc9acefe83e28f9149b',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-serial-16,8': {
        'marginals.csv': '9d9663d12e5ea09d1ed6f7e8c07020c8809a01e1c1b92320529030273be0efe4',
        'query_meta.json': '5b84540b999fe9618d7a993e469c88c193492b45324cc536131f10d35985b645',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-serial-8,4': {
        'marginals.csv': 'd0c48f5287b291c1bb94b4978fb31b0afb05fd92c7d7374babc07068f3aad1c6',
        'query_meta.json': '2c2df39b95e93d49bdd265ab1bd89bd25305aba7455bc40ab24fc50615740a84',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'query-serial-float': {
        'marginals.csv': 'd096ed7cdb76ec730ef5c5287a4a2838ee12e83ca5261838dad4ef519fd6efa8',
        'query_meta.json': '1e0daec1b5fa8572ba245126afdf00efb74221f3de5dc02be0c6bc3daecfc270',
        'stdout': '7891f889007060e545210eba9d261c4f65099577a192c6c891eff1eaf05ead55',
    },
    'run-parallel-16,8': {
        'run_meta.json': '68ce2ddaf986d10cccfc6f32845d59e8b15877c650a86f2ed79436c8f4348509',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': 'fd4da8fa6e3d07c4b7ab39b1e9d9576a7a09985d550e9fee447eb9b5579aebf1',
    },
    'run-parallel-8,4': {
        'run_meta.json': '7caa83e85c193911b84c81913bab7d195fb54a53e04d7012f0f5d63e92b4ecb8',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': '717d38ae797575140671eace7b3d5ab9a43e622d85f65078a62b85d1c3855d3b',
    },
    'run-parallel-float': {
        'run_meta.json': '02c22f550d16eca291329e285f4361bdadabbbc3cfb207bf4a715974a681b0fe',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': 'e97e0fc6893f80498a17560bfb41d2a445369037a2363ce5c0045fafb9ff2882',
    },
    'run-random-scan-16,8': {
        'run_meta.json': 'fcf5ac9ae482b408cf36c6bf8959354d35dca5257a66f85ba2aaf2c4c246315e',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': 'f9d58067283923213abf466d4e71b91050a7844f41b94bfb8a89f341d01f70f5',
    },
    'run-random-scan-8,4': {
        'run_meta.json': 'b2a9b2465e6620b9a8518ab90145a7f099e6a03f23d7cbeb2a23d9cd53c68ee2',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': '2662fc5bf6a24d132ca3e1920cdea9272a9aac5e455af0f5d1e11ff63f583576',
    },
    'run-random-scan-float': {
        'run_meta.json': '12e8a56f0d0ca34d34cf01293fb2b4cc838604dcec353ef7ae260d6555310624',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': '9cbf2d5a0d9feba7b45ebac075423e31de65b75ea85ffbad6064bf94cf343220',
    },
    'run-serial-16,8': {
        'run_meta.json': 'e00da0555dbdea7af9d3c59bcff1a1fb281155e5fe345cc1e5fef3d30cab79c4',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': '22ed949b475b24b312bc9a4688e3e50bba224b72e67b08e6c47f8392d478c9b7',
    },
    'run-serial-8,4': {
        'run_meta.json': 'f8d907105bf8a7d75890966d35373e3ff52d1945c7d0dba2d1c706b3e5157ebd',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': '40b40e815fa42c0f3c2e206da16faf3028351404b05b34701d627f07571e32ea',
    },
    'run-serial-float': {
        'run_meta.json': '7e61dab153d4d023f8e1c52ae4c959c98c459e8d0a89a0058be1a80c464e8f99',
        'stdout': '85824ebc938b052f2fdc9d93b202a4d50f1a9243d6a9c49ba4cda5fe0041cfe0',
        'trace.csv': '180cb8a22b9196eb71c661d5e0efd79e02d7fc354533198dc50eae535eebb7ff',
    },
    'spike-parallel-16,8': {
        'raster.csv': 'd8ce3cd99ae18cd1ccd778b5381a3ba86394c3bd66f7b130166b4d7dbabde382',
        'spike_run_meta.json': '990f831dc886fdd11b2e6785019b5087fe151dffc436dc09e948b3fcfa2eadc8',
        'spike_trace.csv': 'f94bb50b9abc262a7464544b0043fe36634f97e5bc5b30ec6918e610b9a4dbec',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-parallel-8,4': {
        'raster.csv': 'de3cc7c327f3dd79ce2ff0c978f801d3369406299fb8a88d6fa768caaedafd1a',
        'spike_run_meta.json': 'fac68f41671feb613782b943235d96c68ee977f65e3af11390dc87251f5b893e',
        'spike_trace.csv': '598191fafe5a91a61be929486bd1d7de755fff8bd0d2fe61cccfaa206fab0821',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-parallel-float': {
        'raster.csv': 'b35e863843f1c797eff38d848ba1232ebcb7d6bb3e4ad2a6f6658e6cb68692ba',
        'spike_run_meta.json': 'eb139c56f58218d1df6849285fc97a48e7a76ad79cd5c44cce6f756d175d6b73',
        'spike_trace.csv': '0e3b1724c3df6e66cfccb2928b3ba71a9f9097b1e5baebc9f3783047a0a89f36',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-random-scan-16,8': {
        'raster.csv': 'b60a78c9b88dbbd45562e84293dd9d7c54c1724b7c66a1ac4ba5a94c75ca902d',
        'spike_run_meta.json': '045dcf4576b99c9791a1748181e1f2846a89da81ae1529ec7b1d07e8542f4c9f',
        'spike_trace.csv': '70dd2dc282a0cea21973be1d6d5f224a0301bfe290d9848f8a5ce6b51155bcc3',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-random-scan-8,4': {
        'raster.csv': '8811bebebdbb38f25dcec6b553bbf3cd37e9fb28a6d37b0c773f97d98c2d4776',
        'spike_run_meta.json': 'ea637bba2bc1325a7fe40f7fddbc6721a98595443b0998817e2337b5ed23223e',
        'spike_trace.csv': '6087924fbb50bad7930aa7ee925c573dc22e10878593135d816d0bff878ece0b',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-random-scan-float': {
        'raster.csv': '4744f284c49d3fc47c817556464d111cc821eb658934e23fb6b8c91388acf0ae',
        'spike_run_meta.json': '101afae4371018e7ca98d00420467a2dd33f983e7dd6e1f5f715e7c3e6b77eac',
        'spike_trace.csv': '70dd2dc282a0cea21973be1d6d5f224a0301bfe290d9848f8a5ce6b51155bcc3',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-serial-16,8': {
        'raster.csv': '4a5d193d862bce3ce9149e8cc81692c9fa91b92737c3cba9f1b5f869ca11fc24',
        'spike_run_meta.json': '8f999662757a835587e14f793db7eb678a48a477d77e2c165c2ff88b8fa477d8',
        'spike_trace.csv': '2031793c221f4c148bed65bbe80308b909fed730f93cc5fdca33f6d524c5c40a',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-serial-8,4': {
        'raster.csv': 'b4b5a88434e1d561409ae10e8e1cb1d8ac8798214ee75f9e3a6df715c2be40e2',
        'spike_run_meta.json': '136d34c3beac3b8d05b69a5f1c6c72171b4e4b346ecdb7e9a3d46f54e033e5ef',
        'spike_trace.csv': '6c077e9374f732aaba5ce52728c685a08fe8387fef125c8c8ed9a001badbf5f0',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'spike-serial-float': {
        'raster.csv': '58051620cf809368ee0fbe2fdfe0580ea6af08f158574b6cdf56bcb48700b0d4',
        'spike_run_meta.json': '78ab69d9225b06e40a75ba970423602e565fe4944ed896b9ecca189b99de0dda',
        'spike_trace.csv': '2031793c221f4c148bed65bbe80308b909fed730f93cc5fdca33f6d524c5c40a',
        'stdout': 'b3cbe8b1c2dc481ec6c68f575fa599b5e725e8ee1b089054786dda6ee102ccde',
    },
    'stereo-10,5': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': '513c684ee3301f6961ebbd2d47d253b3e7542bd4379660757b6bc0c4e0e2859d',
        'stereo_labels.pgm': 'd2ec33329150495dec3b51e88ab0918ce7c64b85a83545f2c0ceb4ec507aa71e',
        'stereo_meta.json': '3cabb275bd57e8efe2afb93741bc42bb3f3589e6af63013ad69e5a226284b0bd',
    },
    'stereo-1x20': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': 'c1f1db6bbc7dc224014eecbb689c25e16876180670f1a1382cf0a08abb772d03',
        'stereo_labels.pgm': '2ac7e5cf52560f4e2ff41400017f9df40129d7291b3a0888d1d2c346597917f5',
        'stereo_meta.json': '0b94000094fbc948a5ac253ae23681102451c63b597cca0452ab540a5dd7dc66',
    },
    'stereo-2x17': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': 'a81607d4a123da858b68094ff4b120733cfe93799398b01046cf2f556c368477',
        'stereo_labels.pgm': 'af106dd353f5d3b1a3e79102844789e39179efd00f0e0a3f3b75378b89b0286c',
        'stereo_meta.json': '288175ceef091d5ce7033a41551941e6a20d0b2645f69bb4f3f131efa4d1778e',
    },
    'stereo-6,2': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': '227ee725775ae93a5c234e61c45d10f99b351057a0266fdff0c712281dec4f7a',
        'stereo_labels.pgm': '3f47a88dd5ae628c17b013391c8bf477ca40b6410922495878be83a5acca501b',
        'stereo_meta.json': 'c859d768dabd603b3a2f328444a36261e1608e4b95b16d43c82d0b40ce9057b9',
    },
    'stereo-anneal': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': '76755daa5cfef335d4a3b42dac4d77527d66eda4c24f847fc65c62e838711ce2',
        'stereo_labels.pgm': '19fbde01d3758418c3d089f0d183e30737a290aa1fc63e5cd1d615a3e59c64ca',
        'stereo_meta.json': '21c565b300fdc2b901958971339145942c476a61f566131a7492834e5074a516',
    },
    'stereo-anneal-off': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': '52b382b4e7218819843336f92bc84acbc1a484db69120f8e0e4b900f77f1583b',
        'stereo_labels.pgm': '34eeedf0110a88740a526baab9feb20f2955c5058b332c5a545c3ffd1a0b5fba',
        'stereo_meta.json': '01b39971e95a38d98cbf73ee7235a0100d9273285e6442db33b8b13700aabf7b',
    },
    'stereo-float': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': '62f31ff456ee073e8d1d212e63326a2b95dffeb7ab48ae41a9493c22a0ed8c5c',
        'stereo_labels.pgm': 'b340beab420ef54000765431b1354b8ff2831cf86c06023059ad341c4710a7b7',
        'stereo_meta.json': '29698151fdf7257a366f5808cb3a0ff88982d25ae678155d65a64759eec6c1e9',
    },
    'stereo-serial': {
        'stdout': 'befdc9cb96ef3f9db9eebc68526dcd75c1a80fd3d31223658255f9138f40ecfa',
        'stereo_energy.csv': 'da53dc91b18a7586c958473fd6e020cab0405111c917cf0906d53d146eb774f5',
        'stereo_labels.pgm': '8687d51a6c5502b968f9b9cab0add82b44ece49265b51c0e0a6a9590ffdb7597',
        'stereo_meta.json': 'aab27364f3f27e6da3e247960cdea3e618c8bb5da3e165769dbeade5862074e5',
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden(case, tmp_path):
    assert artifact_digests(case, tmp_path) == GOLDEN[case]
