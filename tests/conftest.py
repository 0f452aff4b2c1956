import pytest

from prodform_geo import cli


@pytest.fixture(scope="session")
def default_gallery():
    """One ``gallery`` run at default settings, shared by the whole session.

    Returns the run's report and every ``IsoparametricReport`` it made, by
    immersion name: the 25 gallery examples.  The negative control makes
    none, since the gallery reads only its unit normals.
    """
    reports = {}
    original = cli.isoparametric_report

    def capture(*args, **kwargs):
        rep = original(*args, **kwargs)
        reports[rep.name] = rep
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "isoparametric_report", capture)
        report = cli.run(cli.RunConfig(command="gallery"))
    return report, reports
