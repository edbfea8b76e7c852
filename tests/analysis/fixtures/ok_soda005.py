"""Clean counterpart to bad_soda005: every generator is driven."""

from repro.core import ClientProgram
from repro.core.patterns import make_well_known_pattern

SERVICE = make_well_known_pattern(0o4323)


class ResultKeeper(ClientProgram):
    def initialization(self, api, parent_mid):
        yield from api.advertise(SERVICE)
        unique = yield from api.getuniqueid()
        yield from api.advertise(unique)

    def task(self, api):
        tid = yield from api.exchange(3, put=b"x", get_size=8)
        future = api.watch_completion(tid)
        completion = yield from api.wait_completion(tid, future)
        del completion
