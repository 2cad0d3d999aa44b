"""Golden stdout of the CLI: the sha256 of the data output and the exit
code of a fixed command corpus.

The corpus covers every command of perfbench's ``cli`` workload at seed 7,
both target kinds of every subcommand, certain targets and targets with
zero entries, explicit depths, the bounds sweep in text and JSON, and a
die too large to enumerate.  Since stdout is byte-identical for a fixed
seed, a refactor that changes one byte of it fails here; re-record a
digest only for a deliberate output change.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from coindice.cli import main

GOLDEN = {
    "sample --die 10007 --count 20 --seed 3877477701 --show-flips":
        (0, "3fc0a9dfd7c037f6585218c484160ccb0e06eb9aec2385e9cf14ef1b849aed72"),
    "sample --die 10007 --count 20 --seed 230689359 --show-flips":
        (0, "9f8f256679239ea441b9324bfb8e66231430e49736f05c7d8dca6168eb99a6d1"),
    "sample --die 6 --count 500 --seed 385871594 --show-flips":
        (0, "82982ce359318c3111f362365bd9a1832b71024d3aba9f5491fd7608dabaf8dc"),
    "sample --die 257 --count 500 --seed 3272481920 --show-flips":
        (0, "14de7ac91328af49d71d0322dc9bf931f1b41730cd2e1319b4b06c68396ac071"),
    "sample --dist 3/8,1/2,1/8 --count 500 --seed 3871919457 --show-flips":
        (0, "9666f133a72fb6c2d039ae326bc3c5071f69b530b3660a4082bdc5c6086e0396"),
    "sample --dist 1/3,1/5,7/15 --count 500 --seed 3697077317 --show-flips":
        (0, "1138ec18a92b1eb8a468b8a6c201e920f005461b5a2b76771dcabbae1a599145"),
    "sample --die 6 --count 8 --seed 0 --show-flips":
        (0, "9b8382ba8b974b9010ada09ea317aa3831724d38360f55cd89424c58cdfe00f9"),
    "sample --dist 1/3,1/5,7/15 --count 8 --seed 0 --show-flips":
        (0, "603029e272dd8eb5d6139b901712968ac65fa00da15cb53fc7108aac9ce684b3"),
    "analyze --die 5 --json":
        (0, "b51c453bf4b95ccca2854a7be1a61e794a1e1e229b637642ac6b6cc0481ac1ba"),
    "analyze --die 257 --json":
        (0, "6574b4b9585a6b1381b434f1cbc3f28758e5d28fdb119cfa1ffc04e7eef347c4"),
    "analyze --die 4099 --json":
        (0, "0f45c0581b221a2b2e3531036b155d1a44dc5620260c0894a828b6d8732fd366"),
    "analyze --dist 1/3,1/5,7/15 --json":
        (0, "931bfa7628b718fced99e83ae44e694a597ccaeed7abc8eecea921f772b9c206"),
    "analyze --dist 100/657,280/657,5/657,47/657,25/73 --json":
        (0, "a5465f218ebb7ab82675e9760da6d9ba7719b5c078595080b6630819ef6f73b3"),
    "chisq --die 6 --count 3000 --seed 4247092540":
        (0, "b67841899f10a3fe96fe0c6ed10833d0c86acd98b5e5f8211a9a0947d0215b9b"),
    "chisq --die 2 --count 100 --seed 0":
        (0, "07b5da52ff6f38b7c26d5edc28e77c9bf1b2584a0a967022a9979243b2d1a695"),
    "tree --die 3 --check":
        (0, "be33af00a6188bfa7a9e87938ddac0235e8f7d9a51f04bd8373c3a57670181c7"),
    "tree --die 5 --check":
        (0, "13947ccd3052b286e39ddacdc37d04bb33b4c723b78cca407851015348da1152"),
    "tree --die 37 --depth 14 --check":
        (0, "a5c14b8ead85d2784654828cb9aa615ead9002e541803c32a67a653b9a7cc738"),
    "tree --dist 1/3,1/5,7/15 --check":
        (0, "6923d366e42f26c82efb2fa4726f9d0b6a174ca5633367f374fbfff3ad5ef1fb"),
    "oracle-dump --die 5 --depth 4":
        (0, "6f56e6aacde14484b4ee996d145904f2bc9bdf21626dbb7beb4efb08e83022a4"),
    "oracle-dump --die 6":
        (0, "e05f60bce9aca3133e0aa940bb75a1658640ead19ac320783f35ed5382af6fe5"),
    "oracle-dump --dist 1/3,2/3 --depth 5":
        (0, "7a9cf44b9baaf75d0e9b5e9b4fdc495b679f188859c5ca6776a0054b6465fc24"),
    "oracle-dump --dist 3/8,1/2,1/8 --depth 4":
        (0, "96d1ae17e81019886fb26bba385b8186e18763e70690a5a3abc27c6cc57c78e1"),
    "tree --die 5 --depth 6 --check":
        (0, "680bbdae88254a24afa7be072777ed019c5a5dda18a524e46ac9cc918be669bc"),
    "tree --dist 3/8,1/2,1/8 --depth 3 --check":
        (0, "d080a5b97fc5048ac2a47932145098ad3a978201a737da9e61aa32131212c3bd"),
    "tree --dist 1/2,1/2 --depth 1":
        (0, "d4f2c48c6f5f4c85a04e09fcba83dedb072ec6faf770cb1097e3266e4b507e7a"),
    "chisq --die 6 --count 3000 --seed 9":
        (0, "a7f5b064a360749d6d2cbb5b54ace6187ab8c3bface830c9e3b15f5b78f7c89a"),
    "chisq --die 1 --count 100":
        (0, "5ac0a635f46927a05c1193fbcfb3b987d5c42d599569a6f98c1e5ae33fdbea03"),
    "chisq --dist 3/8,1/2,1/8 --count 3000 --seed 3":
        (0, "a9eeb2dc39b4d44c1d245e7a9964ff015fa527286eb3aabbd9f9f524c1140ed0"),
    "chisq --dist 1/3,1/5,7/15 --count 2000 --seed 5":
        (0, "7c94442ebfa43c8660d7fc49685fe8498edefd970a52a0e78ec58f5446d873d5"),
    "analyze --sweep 40":
        (0, "ec407df820ca1dc5da9a378e6a869b94e96772b8ca288c7791db12458b771c79"),
    "analyze --sweep 40 --json":
        (0, "888a9d54fbd3aa344972cc31ee2c1f4b1d4eb38162406eb4560b332404419f64"),
    "analyze --die 5":
        (0, "21b108459115f5528f788d80fa3aa5649025a41f2f80eeb569c251c113c2bf39"),
    "analyze --die 12":
        (0, "473328c0bcf28b71d83491baf50778cd3990defec22883f93ff0d94247d685b0"),
    "analyze --die 8 --json":
        (0, "71b7f261a9fc5f9bf4f477d283b26263af936e3738674c7e3d9ad314ae276f30"),
    "analyze --dist 3/8,1/2,1/8":
        (0, "9186d4311b34aacb9fcef1bc37202b839fcd3b4a01e638a2d1c3962b511931b6"),
    "analyze --dist 1/3,1/5,7/15":
        (0, "4640b77adea3c422dd712bed8d61830212e57266f9333b82b7a9204c925a30f6"),
    "analyze --die 12 --depth 5":
        (0, "5d140f20de1e829db5e407c46725f73cd189118b3f5fc48e64ca6eec31124f40"),
    "analyze --die 5 --depth 3 --json":
        (0, "06c222f9d61631c9d4323cdd9175630927c715ff09c06247676bf9cdb663285a"),
    "analyze --dist 1/3,2/3 --depth 40":
        (0, "1000c69f9540ffe551deaa64f997738cb9642a69eff28caedc0ddae2489a3a53"),
    "analyze --dist 1/3,2/3 --depth 40 --json":
        (0, "ba2d2127f71614de5678f04afe5223d15dec6818fb9a6474e27173967a09c2b3"),
    "analyze --die 1":
        (0, "62b732db82beb82a9dfa3b1c01d723b1477f2cff27c086fffc5d351ad922cd1c"),
    "analyze --die 1 --json":
        (0, "0757a2192176bff607177a7be91db1f28286897199c7971ac16fc499020deb28"),
    "analyze --dist 0,1,0":
        (0, "e3d1a1a8dbd7694b77cf61e6e8cf85b885ac66e3e87fc84723f7370f58e1f725"),
    "analyze --dist 0,1,0 --json":
        (0, "951526182e1f07e7595d3f5084bb88673240de546cf167b8c789db9a90b5d3af"),
    "sample --die 1 --count 3":
        (0, "04a8deb8c348ecdbe7d0c6a95eeb71f259a3634d2a0980f3fefbf7094d2d8284"),
    "sample --dist 0,1 --count 3 --show-flips":
        (0, "dcedc9b1bb5249f279bc56498c2206c890ca49e8a33823a042c28bf324932ced"),
    "tree --die 1 --check":
        (0, "dd2ba296605b31e27bf1586221cf43e8bed0adc14ad7ff1c7bda9042dd675e76"),
    "tree --dist 0,1,0 --check":
        (0, "f3c4e5b3a71eda92bcca12e254f2a574171566150ec63fe78893b348cf84560b"),
    "oracle-dump --die 1":
        (0, "66f231326d33dfa03390ed2fd208421cd1dba6873b836b0f007a7b4e710a2db8"),
    "oracle-dump --dist 0,1 --depth 3":
        (0, "35f557633461825b57649ca5e1d9cafeef5fd885d9292a29628e81cf3a49a585"),
    "analyze --dist 1/2,0,1/4,1/4":
        (0, "7f3a305dfcf4fb022b7201aba87b955a12cd32e3abb29df7cc83bc431c44ca63"),
    "analyze --dist 1/2,0,1/4,1/4 --json":
        (0, "de2073d81b9c2f93b67ebfca3e64de29d315670d5207566fa09468d7fff70fb2"),
    "sample --dist 1/2,0,1/2 --count 20 --seed 4 --show-flips":
        (0, "b2c319dd131fd40037179872bd42c4d8ebbd782482a82c37a855f8eb8b844965"),
    "tree --dist 1/4,0,3/4 --check":
        (0, "ddcac0404b8a97dea13e33351315b0b9e5da71a4625c30f41c0140349588bb2f"),
    "oracle-dump --dist 1/4,0,3/4 --depth 3":
        (0, "33dbe5be26bd74abbbf264da0405cfeac037afd7e723ac138b149b53ba0e2ba4"),
    "chisq --dist 1/2,0,1/2 --count 200 --seed 1":
        (0, "d00068cd616985c7dd103c07f01eaad47cd332df41fe30787042c78df04f9c90"),
    "sample --die 1000000000000 --count 5 --seed 2 --show-flips":
        (0, "b3d3f41a7bb81f67ad0b83b12b4da223323ad3f9ff0dc7fa4027abdcb6402eda"),
    "sample --die 6 --count 10 --seed 3":
        (0, "2526c9e90a0307b257bc3a0dd4ef962555d933dd7424b6e69c0c9e0e931fd457"),
    'sample --dist [{"num":1,"den":4},{"num":3,"den":4}] --count 10 --seed 6 --show-flips':
        (0, "9e56d9e7f3556956f9cdf8fd23e68293078998ff6f25d8ab29f50ffccb48c4c7"),
    "bench --die 1,5,8 --count 500 --seed 1":
        (0, "5be0f0b49787a63ff58508b6e3890c13f2240860f7d226ea85c075e129ea7bd1"),
    "sample --die 0":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sample --dist 0.5,0.5":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "chisq --die 6 --count 100":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_matches_its_recorded_digest(command):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(command.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]
