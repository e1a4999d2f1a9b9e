"""Serializer escapes: JSON strings and CSV cells that hold quotes, backslashes
and line breaks."""

import csv
import io
import json

import pytest

from tribary import serialize


@pytest.mark.parametrize("text", ['say "hi"', "back\\slash", '\\"', "tab\tand\x0bline\n"])
def test_dumps_escapes_round_trip(text):
    assert json.loads(serialize.dumps(text)) == text
    assert json.loads(serialize.dumps({text: [text]})) == {text: [text]}


def test_dumps_escapes_quote_and_backslash():
    assert serialize.dumps('a"b\\c') == '"a\\"b\\\\c"'


@pytest.mark.parametrize("text", ["a,b", 'a"b', "a\nb", "a\rb", "a\r\nb", "plain"])
def test_csv_cell_round_trips(text):
    line = serialize.csv_cell(text) + "," + serialize.csv_cell(1.5) + "\n"
    assert list(csv.reader(io.StringIO(line, newline=""))) == [[text, "1.5"]]
