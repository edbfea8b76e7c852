"""Clean counterpart to bad_soda008: WAIT with poll; idle() only as a
back-off before another blocking step."""

from repro.core import ClientProgram


class Waiter(ClientProgram):
    def handler(self, api, event):
        if event.is_arrival:
            self.items.append(event.arg)
            yield from api.accept_current()

    def task(self, api):
        self.items = []
        while True:
            yield from api.poll(lambda: bool(self.items))
            yield from api.close()
            if not self.items:
                yield api.idle()
                yield from api.open()
                continue
            self.items.pop()
            yield from api.open()
