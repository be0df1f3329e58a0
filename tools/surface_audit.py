#!/usr/bin/env python3
"""Surface audit: settable fields and header-inline functions that no
shipped code uses, checked against tools/surface_allowlist.txt.

    tools/surface_audit.py

The link-time audit (tools/dead_code_audit.sh) sees only out-of-line
functions. This one reads the source instead, for the two kinds of
surface that leave no symbol:

  field   A field of a `*Config` / `*Options` struct in a src/ header that
          no shipped source writes as `.field = ...`, `->field = ...` or
          `.field.sub = ...` (designated initializers included). Such a
          knob keeps a branch alive that only tests reach.
  inline  A function defined in a src/ header that no shipped source calls
          as `.name(`, `->name(` or a bare `name(`.

Shipped sources are src/, tools/, examples/, the figure benches and the
perf ledger's probe; tests are left out on purpose. Names are matched as
text: a field or function name shared by two structs counts for both, and
positional aggregate initialization or a whole struct copied in counts for
the outer field only, so grep a finding before deleting it.

Exit status: 0 when the findings are exactly the allowlist, 1 when a
finding is not allowlisted, an allowlisted entry is no longer a finding
(it gained a writer or caller, or no longer exists: drop its line), or an
entry has no reason.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / 'tools' / 'surface_allowlist.txt'


def read(paths):
    return [p.read_text() for p in paths]


def unwritten_fields():
    """`Struct::field` -> header, for each field no shipped source writes."""
    shipped = [p for d in ('src', 'tools', 'examples')
               for p in (ROOT / d).rglob('*.[ch]pp')]
    shipped += list((ROOT / 'bench').glob('*.cpp'))
    shipped.append(ROOT / 'bench' / 'ledger' / 'probe.cpp')
    texts = read(shipped)
    fields, found = 0, {}
    for header in sorted((ROOT / 'src').rglob('*.h')):
        text = header.read_text()
        for m in re.finditer(r'\bstruct (\w+(?:Config|Options))\s*\{', text):
            depth, i = 1, m.end()
            while depth:
                depth += {'{': 1, '}': -1}.get(text[i], 0)
                i += 1
            depth = 0
            for line in text[m.end():i - 1].splitlines():
                code = line.split('//')[0]
                d = re.match(r'\s*(?!using|static|friend|return)'
                             r'[\w:<>,\s*&]+?\b(\w+)'
                             r'\s*(?:=[^;]*|\{[^;]*\})?;\s*$', code)
                if depth == 0 and d and '(' not in code.split('=')[0]:
                    fields += 1
                    write = re.compile(r'(?:\.|->)' + d.group(1) +
                                       r'(?:\.\w+)*\s*(?:=[^=]|\+=|-=)')
                    if not any(write.search(t) for t in texts):
                        name = f'{m.group(1)}::{d.group(1)}'
                        found[name] = header.relative_to(ROOT)
                depth += code.count('{') - code.count('}')
    return fields, found


def uncalled_inlines():
    """Names of functions defined in src/ headers that no shipped source
    calls (micro benches included, since they call through headers)."""
    shipped = [p for d in ('src', 'tools', 'examples')
               for p in (ROOT / d).rglob('*.[ch]pp')]
    shipped += list((ROOT / 'src').rglob('*.h'))
    shipped += list((ROOT / 'bench').glob('*.[ch]*'))
    shipped.append(ROOT / 'bench' / 'ledger' / 'probe.cpp')
    text = '\n'.join(read(shipped))
    names = set()
    for header in (ROOT / 'src').rglob('*.h'):
        for m in re.finditer(r'^\s*(?:[\w:<>,*&]+\s+)+([a-z_]\w*)\([^;{]*\)\s*'
                             r'(?:const\s*)?(?:noexcept\s*)?\{',
                             header.read_text(), re.M):
            names.add(m.group(1))
    names.discard('operator')
    uncalled = set()
    for name in names:
        member = re.search(r'(?:\.|->)' + name + r'\(', text)
        bare = re.search(r'(?:[(,!=\[{?:+*/<-]|return|&&|\|\||^)\s*' + name +
                         r'\(', text, re.M)
        if not member and not bare:
            uncalled.add(name)
    return len(names), uncalled


def read_allowlist():
    """(kind, name) -> reason."""
    entries = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        entry, _, reason = line.partition('#')
        if not entry.strip():
            continue
        kind, name = entry.split()
        entries[(kind, name)] = (number, reason.strip())
    return entries


def main():
    fields, field_findings = unwritten_fields()
    inlines, inline_findings = uncalled_inlines()
    findings = {('field', name) for name in field_findings}
    findings |= {('inline', name) for name in inline_findings}
    allowed = read_allowlist()

    status = 0
    print(f'surface_audit: {len(field_findings)} of {fields} config fields '
          f'have no shipped writer; {len(inline_findings)} of {inlines} '
          'header-inline functions have no shipped caller')
    for kind, name in sorted(findings - allowed.keys()):
        where = f' ({field_findings[name]})' if kind == 'field' else ''
        print(f'  UNUSED (not allowlisted): {kind} {name}{where}')
        status = 1
    for kind, name in sorted(allowed.keys() - findings):
        print(f'  STALE (allowlisted, now used or gone): {kind} {name}')
        status = 1
    for (kind, name), (number, reason) in sorted(allowed.items()):
        if not reason:
            print(f'  NO REASON: {ALLOWLIST.name}:{number}: {kind} {name}')
            status = 1
    if status == 0:
        print(f'  all {len(allowed)} are allowlisted with a reason')
    return status


if __name__ == '__main__':
    sys.exit(main())
